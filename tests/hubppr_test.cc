#include "approx/hubppr.h"

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "approx/random_walk.h"
#include "test_util.h"

namespace ppr {
namespace {

Graph HubTestGraph() {
  Rng rng(77);
  Graph g = BarabasiAlbert(200, 3, rng);  // dead-end free, has real hubs
  g.BuildInAdjacency();
  return g;
}

TEST(HubPprTest, BuildSelectsRequestedHubCount) {
  Graph g = HubTestGraph();
  HubPprIndex::Options options;
  options.num_hubs = 10;
  HubPprIndex index = HubPprIndex::Build(g, options);
  EXPECT_EQ(index.num_hubs(), 10u);
  EXPECT_GT(index.IndexBytes(), 0u);
}

TEST(HubPprTest, DefaultHubCountScalesWithN) {
  Graph g = HubTestGraph();
  HubPprIndex::Options options;
  HubPprIndex index = HubPprIndex::Build(g, options);
  EXPECT_EQ(index.num_hubs(), (g.num_nodes() + 63) / 64);
}

TEST(HubPprTest, HighestDegreeNodeIsAHub) {
  Graph g = HubTestGraph();
  NodeId top = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(top)) top = v;
  }
  HubPprIndex::Options options;
  options.num_hubs = 5;
  HubPprIndex index = HubPprIndex::Build(g, options);
  EXPECT_TRUE(index.IsHub(top))
      << "a BA graph's degree hub dominates PageRank";
}

TEST(HubPprTest, HubQueryAccurate) {
  Graph g = HubTestGraph();
  HubPprIndex::Options options;
  options.num_hubs = 8;
  options.rmax = 1e-4;
  HubPprIndex index = HubPprIndex::Build(g, options);
  // Find a hub to query.
  NodeId hub = 0;
  while (!index.IsHub(hub)) hub++;
  std::vector<double> exact = testing::ExactPprDense(g, 3, 0.2);
  Rng rng(5);
  BiPprResult result = index.Query(3, hub, /*epsilon=*/0.3, rng);
  EXPECT_NEAR(result.estimate, exact[hub], 0.3 * exact[hub] + 1e-3);
  EXPECT_EQ(result.backward_pushes, 0u)
      << "hub targets must not pay backward pushes at query time";
}

TEST(HubPprTest, NonHubQueryAccurate) {
  Graph g = HubTestGraph();
  HubPprIndex::Options options;
  options.num_hubs = 3;
  options.rmax = 1e-4;
  HubPprIndex index = HubPprIndex::Build(g, options);
  NodeId non_hub = 0;
  while (index.IsHub(non_hub)) non_hub++;
  std::vector<double> exact = testing::ExactPprDense(g, 7, 0.2);
  Rng rng(6);
  BiPprResult result = index.Query(7, non_hub, /*epsilon=*/0.3, rng);
  EXPECT_NEAR(result.estimate, exact[non_hub],
              0.3 * exact[non_hub] + 1e-3);
  EXPECT_GT(result.backward_pushes, 0u);
}

TEST(HubPprTest, UnbiasedOverSeedsOnHubTarget) {
  Graph g = HubTestGraph();
  HubPprIndex::Options options;
  options.num_hubs = 4;
  options.rmax = 1e-3;
  HubPprIndex index = HubPprIndex::Build(g, options);
  NodeId hub = 0;
  while (!index.IsHub(hub)) hub++;
  std::vector<double> exact = testing::ExactPprDense(g, 11, 0.2);
  double mean = 0.0;
  constexpr int kRuns = 30;
  for (int run = 0; run < kRuns; ++run) {
    Rng rng(run * 7 + 3);
    mean += index.Query(11, hub, 0.5, rng).estimate / kRuns;
  }
  EXPECT_NEAR(mean, exact[hub], 0.1 * exact[hub] + 5e-4);
}

TEST(HubPprDeathTest, RequiresInAdjacency) {
  Graph g = CycleGraph(8);
  HubPprIndex::Options options;
  EXPECT_DEATH(HubPprIndex::Build(g, options), "transpose");
}

TEST(HubPprTest, WalkCountFollowsTheBudget) {
  Graph g = HubTestGraph();
  HubPprIndex::Options options;
  options.num_hubs = 4;
  HubPprIndex index = HubPprIndex::Build(g, options);
  Rng rng(9);
  const BiPprResult result = index.Query(0, 1, 0.02, rng);
  EXPECT_GT(index.WalkBudget(0.02), 16.0);
  EXPECT_EQ(result.walks, WalkCount(index.WalkBudget(0.02)));
}

TEST(HubPprSolverTest, WalkCountsThatDoNotFitAreInvalidArgument) {
  Graph g = HubTestGraph();
  const SolverRegistry& registry = SolverRegistry::Global();
  auto tiny = registry.Create("hubppr:eps=1e-300,hubs=4");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny.value()->Prepare(g).code(), StatusCode::kInvalidArgument);
  auto solver = registry.Create("hubppr:hubs=4");
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE(solver.value()->Prepare(g).ok());
  SolverContext context;
  PprResult result;
  EXPECT_EQ(solver.value()
                ->Solve({.source = 0, .target = 1, .epsilon = 1e-300},
                        context, &result)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      solver.value()->Solve({.source = 0, .target = 1}, context, &result).ok());
}

}  // namespace
}  // namespace ppr
