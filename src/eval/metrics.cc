#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace ppr {

double L1Distance(std::span<const double> a, std::span<const double> b) {
  PPR_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

double L2Distance(std::span<const double> a, std::span<const double> b) {
  PPR_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double MaxRelativeError(std::span<const double> estimate,
                        std::span<const double> truth, double threshold) {
  PPR_CHECK(estimate.size() == truth.size());
  double worst = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] < threshold || truth[i] <= 0.0) continue;
    worst = std::max(worst, std::fabs(estimate[i] - truth[i]) / truth[i]);
  }
  return worst;
}

namespace {

/// Keeps the k best ids offered to it in a heap whose front is the worst
/// one kept, so a rejected id costs one comparison and an accepted one
/// O(log k). The order is total even with NaNs: descending by value,
/// NaNs after every number, equal values (and NaN pairs) broken
/// ascending by id. A plain `values[a] > values[b]` comparator is not a
/// strict weak ordering once a NaN appears (NaN compares false against
/// everything); this one stays deterministic for any input.
class TopKHeap {
 public:
  TopKHeap(std::span<const double> values, size_t k)
      : values_(values), k_(std::min(k, values.size())) {
    ids_.reserve(k_);
  }

  void Offer(uint32_t id) {
    // One comparison rejects most ids; it stays small enough to inline
    // into the scans. A NaN fails it and takes the full comparison.
    if (values_[id] < bar_) return;
    if (ids_.size() == k_ &&
        (k_ == 0 || !RanksBefore{values_}(id, ids_.front()))) {
      return;
    }
    Accept(id);
  }

  /// The kept ids, best first.
  std::vector<uint32_t> Take() {
    std::sort_heap(ids_.begin(), ids_.end(), RanksBefore{values_});
    return std::move(ids_);
  }

 private:
  [[gnu::noinline]] void Accept(uint32_t id) {
    if (ids_.size() == k_) {
      std::pop_heap(ids_.begin(), ids_.end(), RanksBefore{values_});
      ids_.pop_back();
    }
    ids_.push_back(id);
    std::push_heap(ids_.begin(), ids_.end(), RanksBefore{values_});
    // A full heap rejects every value below its worst. A NaN worst
    // rejects nothing, as every comparison with it is false.
    if (ids_.size() == k_) bar_ = values_[ids_.front()];
  }

  struct RanksBefore {
    std::span<const double> values;
    bool operator()(uint32_t a, uint32_t b) const {
      const double va = values[a];
      const double vb = values[b];
      const bool nan_a = std::isnan(va);
      const bool nan_b = std::isnan(vb);
      if (nan_a != nan_b) return nan_b;
      if (!nan_a && va != vb) return va > vb;
      return a < b;
    }
  };

  std::span<const double> values_;
  size_t k_;
  std::vector<uint32_t> ids_;
  double bar_ = -std::numeric_limits<double>::infinity();  // see Accept
};

}  // namespace

std::vector<uint32_t> TopK(std::span<const double> values, size_t k) {
  TopKHeap heap(values, k);
  const uint32_t n = static_cast<uint32_t>(values.size());
  for (uint32_t v = 0; v < n; ++v) heap.Offer(v);
  return heap.Take();
}

std::vector<uint32_t> TopK(std::span<const double> values,
                           std::span<const uint32_t> support, size_t k) {
  TopKHeap heap(values, k);
  // Zero-valued ids, inside the support or not, tie at 0 and rank by id,
  // so only the k lowest of them can make the top k. Offering those and
  // the nonzero support entries offers every id that can rank, once.
  for (uint32_t v : support) {
    if (values[v] != 0.0) heap.Offer(v);
  }
  const uint32_t n = static_cast<uint32_t>(values.size());
  size_t zeros = 0;
  for (uint32_t v = 0; v < n && zeros < k; ++v) {
    if (values[v] == 0.0) {
      heap.Offer(v);
      ++zeros;
    }
  }
  return heap.Take();
}

double PrecisionAtK(std::span<const double> estimate,
                    std::span<const double> truth, size_t k) {
  PPR_CHECK(estimate.size() == truth.size());
  if (k == 0) return 1.0;
  std::vector<uint32_t> est_top = TopK(estimate, k);
  std::vector<uint32_t> true_top = TopK(truth, k);
  std::sort(est_top.begin(), est_top.end());
  std::sort(true_top.begin(), true_top.end());
  std::vector<uint32_t> common;
  std::set_intersection(est_top.begin(), est_top.end(), true_top.begin(),
                        true_top.end(), std::back_inserter(common));
  return static_cast<double>(common.size()) /
         static_cast<double>(true_top.size());
}

}  // namespace ppr
