#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace ppr {
namespace {

TEST(MetricsTest, L1Distance) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {1.5, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 1.5);
  EXPECT_DOUBLE_EQ(L1Distance(a, a), 0.0);
}

TEST(MetricsTest, L2Distance) {
  std::vector<double> a = {0.0, 3.0};
  std::vector<double> b = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(L2Distance(a, b), 5.0);
}

TEST(MetricsTest, MaxRelativeErrorRespectsThreshold) {
  std::vector<double> truth = {0.5, 0.01, 0.001};
  std::vector<double> estimate = {0.55, 0.02, 0.0};
  // Threshold 0.1: only index 0 qualifies -> rel err 0.1.
  EXPECT_NEAR(MaxRelativeError(estimate, truth, 0.1), 0.1, 1e-12);
  // Threshold 0.005: indices 0 and 1 qualify -> index 1 has rel err 1.0.
  EXPECT_NEAR(MaxRelativeError(estimate, truth, 0.005), 1.0, 1e-12);
}

TEST(MetricsTest, MaxRelativeErrorEmptySetIsZero) {
  std::vector<double> truth = {0.001, 0.002};
  std::vector<double> estimate = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(MaxRelativeError(estimate, truth, 0.5), 0.0);
}

TEST(MetricsTest, TopKOrdersByValueThenId) {
  std::vector<double> values = {0.1, 0.5, 0.5, 0.9};
  auto top = TopK(values, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 1u);  // tie with 2, lower id wins
  EXPECT_EQ(top[2], 2u);
}

TEST(MetricsTest, TopKClampsToSize) {
  std::vector<double> values = {0.3, 0.1};
  EXPECT_EQ(TopK(values, 10).size(), 2u);
}

TEST(MetricsTest, TopKAllTiesStableByNodeId) {
  std::vector<double> values(6, 0.25);
  auto top = TopK(values, 4);
  EXPECT_EQ(top, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(MetricsTest, TopKNansOrderLastDeterministically) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {nan, 0.2, nan, 0.9, 0.2};
  // NaNs sort after every number; within each tie class, lower id first.
  auto top = TopK(values, 5);
  EXPECT_EQ(top, (std::vector<uint32_t>{3, 1, 4, 0, 2}));
  // The same input always produces the same answer — run it again.
  EXPECT_EQ(TopK(values, 5), top);
  // A k that cuts inside the NaN tail still picks the lower ids.
  EXPECT_EQ(TopK(values, 4), (std::vector<uint32_t>{3, 1, 4, 0}));
}

/// Reference for TopK: a full sort under the documented order.
std::vector<uint32_t> SortedTopK(const std::vector<double>& values, size_t k) {
  std::vector<uint32_t> ids(values.size());
  for (uint32_t v = 0; v < ids.size(); ++v) ids[v] = v;
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    const bool nan_a = std::isnan(values[a]);
    const bool nan_b = std::isnan(values[b]);
    if (nan_a != nan_b) return nan_b;
    if (!nan_a && values[a] != values[b]) return values[a] > values[b];
    return a < b;
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

TEST(MetricsTest, SupportTopKMatchesDenseTopKOnRandomInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Few distinct values, so ties are common; explicit zeros (both signs),
  // NaNs and negatives inside the support; k from 0 to past n.
  const std::vector<double> pool = {0.5, 0.25, 0.25, 1e-9, 0.0, -0.0,
                                    -0.125, nan, 3.0};
  std::mt19937 rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint32_t n = 1 + rng() % 40;
    const size_t k = rng() % (n + 4);
    const uint32_t percent_in_support = rng() % 101;
    std::vector<double> values(n, 0.0);
    std::vector<uint32_t> support;
    for (uint32_t v = 0; v < n; ++v) {
      if (rng() % 100 >= percent_in_support) continue;
      support.push_back(v);
      values[v] = rng() % 4 == 0 ? static_cast<double>(rng() % 1000) / 7.0
                                 : pool[rng() % pool.size()];
    }
    std::shuffle(support.begin(), support.end(), rng);
    const std::vector<uint32_t> expected = SortedTopK(values, k);
    ASSERT_EQ(TopK(values, k), expected) << "trial " << trial;
    ASSERT_EQ(TopK(values, support, k), expected)
        << "trial " << trial << " n=" << n << " k=" << k
        << " support=" << support.size();
  }
}

TEST(MetricsTest, SupportTopKFillsFromLowestZeroIds) {
  // Fewer nonzeros than k: the rest of the answer is the lowest ids that
  // hold 0, inside the support (id 1) or outside it.
  std::vector<double> values(10, 0.0);
  values[7] = 0.5;
  values[3] = 0.25;
  const std::vector<uint32_t> support = {7, 1, 3};
  const std::vector<uint32_t> expected = {7, 3, 0, 1, 2};
  EXPECT_EQ(TopK(values, support, 5), expected);
  EXPECT_EQ(TopK(values, 5), expected);
  EXPECT_EQ(TopK(values, support, 0), std::vector<uint32_t>{});
  EXPECT_EQ(TopK(values, support, 100), SortedTopK(values, 100));
  EXPECT_EQ(TopK(values, {}, 3), (std::vector<uint32_t>{0, 1, 2}));
}

TEST(MetricsTest, PrecisionAtKPerfectAndDisjoint) {
  std::vector<double> truth = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> same = truth;
  EXPECT_DOUBLE_EQ(PrecisionAtK(same, truth, 2), 1.0);
  std::vector<double> reversed = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(PrecisionAtK(reversed, truth, 2), 0.0);
}

TEST(MetricsTest, PrecisionAtKPartialOverlap) {
  std::vector<double> truth = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> estimate = {0.4, 0.1, 0.3, 0.2};
  // True top-2 {0,1}; estimated top-2 {0,2}: overlap 1/2.
  EXPECT_DOUBLE_EQ(PrecisionAtK(estimate, truth, 2), 0.5);
}

TEST(MetricsTest, PrecisionAtZeroIsOne) {
  std::vector<double> v = {1.0};
  EXPECT_DOUBLE_EQ(PrecisionAtK(v, v, 0), 1.0);
}

TEST(MetricsDeathTest, MismatchedSizesAbort) {
  std::vector<double> a = {1.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_DEATH(L1Distance(a, b), "Check failed");
}

}  // namespace
}  // namespace ppr
