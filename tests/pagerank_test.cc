#include "core/pagerank.h"

#include <chrono>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "api/solver.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace ppr {
namespace {

TEST(PageRankTest, SumsToOne) {
  for (auto& tc : testing::SmallGraphZoo()) {
    std::vector<double> rank = PageRank(tc.graph);
    EXPECT_NEAR(testing::Sum(rank), 1.0, 1e-9) << tc.name;
  }
}

TEST(PageRankTest, UniformOnCycle) {
  Graph g = CycleGraph(20);
  std::vector<double> rank = PageRank(g);
  for (double r : rank) EXPECT_NEAR(r, 0.05, 1e-9);
}

TEST(PageRankTest, UniformOnCompleteGraph) {
  Graph g = CompleteGraph(12);
  std::vector<double> rank = PageRank(g);
  for (double r : rank) EXPECT_NEAR(r, 1.0 / 12, 1e-9);
}

TEST(PageRankTest, HubDominatesStar) {
  Graph g = StarGraph(50);
  std::vector<double> rank = PageRank(g);
  // The center receives mass from all 49 leaves.
  EXPECT_GT(rank[0], 0.3);
  for (NodeId v = 1; v < 50; ++v) {
    EXPECT_LT(rank[v], rank[0]);
    EXPECT_NEAR(rank[v], rank[1], 1e-9);  // leaves are symmetric
  }
}

TEST(PageRankTest, MatchesAverageOfPprRows) {
  // PageRank = (1/n) sum_s pi_s when dead ends are absent (the
  // dead-end conventions differ otherwise).
  Graph g = PaperExampleGraph();
  std::vector<double> average(g.num_nodes(), 0.0);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    std::vector<double> row = testing::ExactPprDense(g, s, 0.2);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      average[v] += row[v] / g.num_nodes();
    }
  }
  std::vector<double> rank = PageRank(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(rank[v], average[v], 1e-8) << "v=" << v;
  }
}

TEST(PageRankTest, DanglingMassRedistributed) {
  Graph g = PathGraph(5);  // node 4 dangles
  SolveStats stats;
  std::vector<double> rank = PageRank(g, {}, &stats);
  EXPECT_NEAR(testing::Sum(rank), 1.0, 1e-9);
  for (double r : rank) EXPECT_GT(r, 0.0);
  EXPECT_GT(stats.iterations, 0u);
}

TEST(PageRankTest, RanksFollowInDegreeOnScaleFree) {
  Rng rng(8);
  Graph g = ChungLuPowerLaw(2000, 8.0, 2.3, rng);
  g.BuildInAdjacency();
  std::vector<double> rank = PageRank(g);
  // The max-in-degree node should land in the global top 1%.
  NodeId in_hub = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) > g.InDegree(in_hub)) in_hub = v;
  }
  auto top = TopK(rank, g.num_nodes() / 100);
  EXPECT_NE(std::find(top.begin(), top.end(), in_hub), top.end());
}

TEST(PageRankTest, StatsReported) {
  Graph g = CycleGraph(16);
  SolveStats stats;
  PageRankOptions options;
  options.lambda = 1e-6;
  PageRank(g, options, &stats);
  EXPECT_GT(stats.push_operations, 0u);
  EXPECT_LE(stats.final_rsum, options.lambda);
}

TEST(PageRankTest, CancelledTokenStopsBeforeTheFirstIteration) {
  Graph g = CycleGraph(16);
  CancelToken token;
  token.RequestCancel();
  PageRankOptions options;
  options.cancel = &token;
  SolveStats stats;
  std::vector<double> rank = PageRank(g, options, &stats);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.push_operations, 0u);
  // The unspent start vector is folded in, so the mass is still whole.
  EXPECT_NEAR(testing::Sum(rank), 1.0, 1e-12);
}

TEST(PageRankTest, RegistrySolveStopsOnItsToken) {
  Rng rng(5);
  const Graph graph = BarabasiAlbert(20000, 4, rng);
  auto created = SolverRegistry::Global().Create("pagerank");
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  ASSERT_TRUE(solver->Prepare(graph).ok());
  SolverContext context;
  PprResult full;
  ASSERT_TRUE(solver->Solve({.source = 0}, context, &full).ok());

  CancelToken cancelled;
  cancelled.RequestCancel();
  context.set_cancel_token(&cancelled);
  PprResult result;
  EXPECT_FALSE(solver->Solve({.source = 0}, context, &result).ok());

  // A deadline that expires mid-solve stops the iteration there instead
  // of running all of it before the post-check fails the query. Budgets
  // grow until one lands inside the kernel.
  bool stopped_mid_solve = false;
  std::chrono::microseconds budget(100);
  for (int attempt = 0; attempt < 30 && !stopped_mid_solve; ++attempt) {
    CancelToken token;
    token.ArmDeadline(std::chrono::steady_clock::now() + budget);
    context.set_cancel_token(&token);
    result.stats = SolveStats{};
    const Status status = solver->Solve({.source = 0}, context, &result);
    const uint64_t iterations = result.stats.iterations;
    stopped_mid_solve = status.code() == StatusCode::kDeadlineExceeded &&
                        iterations > 0 &&
                        iterations < full.stats.iterations;
    budget = budget * 3 / 2;
  }
  context.set_cancel_token(nullptr);
  EXPECT_TRUE(stopped_mid_solve);
}

}  // namespace
}  // namespace ppr
