#include "approx/bippr.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "approx/random_walk.h"
#include "test_util.h"

namespace ppr {
namespace {

TEST(BiPprTest, SinglePairEstimateIsAccurate) {
  Graph g = PaperExampleGraph();
  g.BuildInAdjacency();
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  BiPprOptions options;
  options.epsilon = 0.2;
  Rng rng(5);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    BiPprResult result = BiPpr(g, 0, t, options, rng);
    EXPECT_NEAR(result.estimate, exact[t], 0.25 * exact[t] + 1e-3)
        << "t=" << t;
  }
}

TEST(BiPprTest, UnbiasedOverSeeds) {
  Graph g = testing::SmallGraphZoo()[4].graph;  // complete_10
  g.BuildInAdjacency();
  std::vector<double> exact = testing::ExactPprDense(g, 2, 0.2);
  BiPprOptions options;
  options.epsilon = 0.5;
  double mean = 0.0;
  constexpr int kRuns = 40;
  for (int run = 0; run < kRuns; ++run) {
    Rng rng(run * 31337 + 11);
    mean += BiPpr(g, 2, 7, options, rng).estimate / kRuns;
  }
  EXPECT_NEAR(mean, exact[7], 0.02);
}

TEST(BiPprTest, PureBackwardWhenRmaxTiny) {
  // With a tiny rmax the backward phase resolves everything; the walk
  // phase adds ~zero and the estimate is near-exact.
  Graph g = CycleGraph(16);
  g.BuildInAdjacency();
  std::vector<double> exact = testing::ExactPprDense(g, 3, 0.2);
  BiPprOptions options;
  options.rmax = 1e-12;
  Rng rng(1);
  BiPprResult result = BiPpr(g, 3, 9, options, rng);
  EXPECT_NEAR(result.estimate, exact[9], 1e-9);
}

TEST(BiPprTest, ReportsWorkCounters) {
  Graph g = testing::SmallGraphZoo()[4].graph;
  g.BuildInAdjacency();
  BiPprOptions options;
  Rng rng(3);
  BiPprResult result = BiPpr(g, 0, 1, options, rng);
  EXPECT_GT(result.walks, 0u);
  EXPECT_GT(result.backward_pushes, 0u);
  EXPECT_GE(result.seconds, 0.0);
}

TEST(BiPprTest, SelfPairAtLeastAlpha) {
  Graph g = testing::SmallGraphZoo()[5].graph;  // grid_5x5
  g.BuildInAdjacency();
  BiPprOptions options;
  options.epsilon = 0.3;
  Rng rng(9);
  BiPprResult result = BiPpr(g, 6, 6, options, rng);
  EXPECT_GE(result.estimate, 0.2 * 0.8);  // alpha modulo estimator noise
}

TEST(BiPprTest, WalkCountFollowsTheBudget) {
  Graph g = testing::SmallGraphZoo()[4].graph;  // complete_10
  g.BuildInAdjacency();
  BiPprOptions options;
  options.epsilon = 0.05;
  Rng rng(3);
  const BiPprResult result = BiPpr(g, 0, 1, options, rng);
  EXPECT_GT(BiPprWalkBudget(g, options), 16.0);
  EXPECT_EQ(result.walks, WalkCount(BiPprWalkBudget(g, options)));
}

TEST(BiPprSolverTest, WalkCountsThatDoNotFitAreInvalidArgument) {
  Graph g = testing::SmallGraphZoo()[4].graph;  // complete_10
  g.BuildInAdjacency();
  const SolverRegistry& registry = SolverRegistry::Global();
  // eps enters squared, delta under the balanced rmax's square root.
  for (const char* spec : {"bippr:eps=1e-300", "bippr:delta=1e-300"}) {
    auto solver = registry.Create(spec);
    ASSERT_TRUE(solver.ok()) << spec;
    EXPECT_EQ(solver.value()->Prepare(g).code(), StatusCode::kInvalidArgument)
        << spec;
  }
  auto solver = registry.Create("bippr");
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
