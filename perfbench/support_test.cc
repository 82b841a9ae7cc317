// Tests of the benchmark's own machinery: percentile and tail
// selection, the metric catalogue against BENCHMARK.json, and each
// answer check against a corrupted answer.

#include "support.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "api/context.h"
#include "api/registry.h"
#include "eval/metrics.h"
#include "graph/datasets.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = i + 1;  // 1..n
  return v;
}

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(Iota(101), 90), 91.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(PickTailTest, NeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves 10 above it (991..1000 > 990.01).
  TailPick tail = PickTail(Iota(1000), 99.0);
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_GE(tail.beyond, 10u);
  // 200 samples: p99 leaves 2, p95 leaves exactly 10.
  tail = PickTail(Iota(200), 99.0);
  EXPECT_EQ(tail.percentile, 95.0);
  EXPECT_EQ(tail.beyond, 10u);
  // 150 samples: p95 leaves 7, p90 leaves 15.
  EXPECT_EQ(PickTail(Iota(150), 99.0).percentile, 90.0);
  // The cap wins even when a higher percentile would qualify.
  EXPECT_EQ(PickTail(Iota(100000), 90.0).percentile, 90.0);
  // Too few samples for any percentile to leave ten beyond it.
  EXPECT_EQ(PickTail(Iota(15), 99.0).percentile, 0.0);
}

TEST(PickTailTest, TiesAreNotCountedAsBeyond) {
  std::vector<double> samples(100, 5.0);
  samples.push_back(9.0);
  EXPECT_EQ(PickTail(samples, 99.0).percentile, 0.0);
}

/// The "name": "..." values of one top-level array of BENCHMARK.json.
std::vector<std::string> DeclaredNames(const std::string& json,
                                       const std::string& key) {
  std::vector<std::string> names;
  size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return names;
  const size_t end = json.find(']', at);
  const std::string needle = "\"name\": \"";
  while ((at = json.find(needle, at)) != std::string::npos && at < end) {
    at += needle.size();
    names.push_back(json.substr(at, json.find('"', at) - at));
  }
  return names;
}

TEST(MetricCatalogTest, MatchesBenchmarkJsonAndTheGrammar) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  std::vector<std::string> end_to_end, per_layer;
  std::set<std::string> seen;
  for (const MetricDef& def : MetricCatalog()) {
    EXPECT_TRUE(ValidMetricName(def.name)) << def.name;
    EXPECT_TRUE(ValidUnit(def.unit)) << def.unit;
    EXPECT_TRUE(seen.insert(def.name).second) << def.name;
    (def.end_to_end ? end_to_end : per_layer).push_back(def.name);
  }
  EXPECT_EQ(end_to_end, DeclaredNames(text.str(), "end_to_end"));
  EXPECT_EQ(per_layer, DeclaredNames(text.str(), "per_layer"));
  EXPECT_EQ(end_to_end.front(), "setup_s");
}

TEST(MetricCatalogTest, GrammarRejectsBadNames) {
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_lead"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName("serve.submit_us-p50"));
  EXPECT_FALSE(ValidUnit("seconds_per_query"));  // 17 characters
  EXPECT_TRUE(ValidUnit("1/s"));
}

/// A genuine answer from a push solver, to corrupt one field at a time.
class AnswerCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = ppr::MakeDataset(ppr::FindDataset("pokec-sim"), 0.02, 5);
    auto solver = ppr::SolverRegistry::Global().Create("powerpush");
    ASSERT_TRUE(solver.ok());
    solver_ = std::move(solver.value());
    ASSERT_TRUE(solver_->Prepare(graph_).ok());
    ppr::SolverContext context;
    ASSERT_TRUE(solver_->Solve({.source = 3, .top_k = 10}, context,
                               &result_)
                    .ok());
  }

  ppr::Graph graph_;
  std::unique_ptr<ppr::Solver> solver_;
  ppr::PprResult result_;
};

TEST_F(AnswerCheckTest, GenuineAnswerPassesEveryCheck) {
  EXPECT_TRUE(CertificateHolds(result_));
  EXPECT_TRUE(MassConserved(result_));
  EXPECT_TRUE(TopNodesMatch(result_, 10));
  EXPECT_TRUE(L1Within(result_.scores, result_.scores, 0.0));
  EXPECT_TRUE(BitIdentical(result_, result_));
}

TEST_F(AnswerCheckTest, PerturbedScoreFailsMassConservation) {
  result_.scores[17] += 1e-6;
  EXPECT_FALSE(MassConserved(result_));
}

TEST_F(AnswerCheckTest, InflatedResidueFailsTheCertificate) {
  result_.stats.final_rsum = 2 * result_.l1_bound;
  EXPECT_FALSE(CertificateHolds(result_));
}

TEST_F(AnswerCheckTest, SwappedTopNodesFail) {
  std::swap(result_.top_nodes[0], result_.top_nodes[1]);
  EXPECT_FALSE(TopNodesMatch(result_, 10));
  result_.top_nodes.pop_back();
  EXPECT_FALSE(TopNodesMatch(result_, 10));
}

TEST_F(AnswerCheckTest, DistantReferenceFailsL1) {
  std::vector<double> reference = result_.scores;
  reference[0] += 3e-8;
  EXPECT_FALSE(L1Within(result_.scores, reference, 2e-8));
  EXPECT_TRUE(L1Within(result_.scores, reference, 4e-8));
  reference.pop_back();
  EXPECT_FALSE(L1Within(result_.scores, reference, 1.0));
}

TEST_F(AnswerCheckTest, OneUlpOrOneCounterBreaksBitIdentity) {
  ppr::PprResult other = result_;
  other.scores[5] = std::nextafter(other.scores[5], 1.0);
  EXPECT_FALSE(BitIdentical(result_, other));
  other = result_;
  ++other.stats.edge_pushes;
  EXPECT_FALSE(BitIdentical(result_, other));
}

TEST(CounterCheckTest, LostQueryBreaksReconciliation) {
  ppr::PprServerStats stats;
  stats.submitted = 10;
  stats.completed = 7;
  stats.failed = 1;
  stats.shed = 1;
  stats.cancelled = 1;
  EXPECT_TRUE(CountersReconcile(stats));
  stats.completed = 6;
  EXPECT_FALSE(CountersReconcile(stats));
}

TEST(KernelTimeTest, ZeroSecondsWithWorkIsUnreported) {
  ppr::SolveStats stats;
  EXPECT_EQ(ReportedKernelSeconds(stats), 0.0);  // no work, no time
  stats.push_operations = 5;
  EXPECT_LT(ReportedKernelSeconds(stats), 0.0);
  stats.seconds = 0.25;
  EXPECT_EQ(ReportedKernelSeconds(stats), 0.25);
}

TEST(CheckTallyTest, CountsByName) {
  CheckTally tally;
  tally.Record("a", true);
  tally.Record("a", false);
  tally.Record("b", true);
  EXPECT_EQ(tally.checked(), 3u);
  EXPECT_EQ(tally.failures(), 1u);
  EXPECT_EQ(tally.by_name().at("a"), std::make_pair(uint64_t{2},
                                                    uint64_t{1}));
}

TEST(TracerTest, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer(true);
  const auto t0 = Tracer::Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const int32_t root = tracer.Add("query", at(0), at(100), -1, 1);
  tracer.Add("solve", at(10), at(60), root, 1);
  tracer.Add("topk", at(50), at(70), root, 1);  // overlaps solve
  const auto self = tracer.SelfTimes();
  EXPECT_NEAR(self.at("query").seconds, 0.040, 1e-9);
  EXPECT_NEAR(self.at("solve").seconds, 0.050, 1e-9);
  EXPECT_EQ(self.at("topk").spans, 1u);
  Tracer off(false);
  EXPECT_EQ(off.Add("query", at(0), at(1), -1, 1), Tracer::kNoParent);
  EXPECT_EQ(off.size(), 0u);
}

}  // namespace
}  // namespace perfbench
