#include "approx/monte_carlo.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "approx/random_walk.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace ppr {
namespace {

TEST(ChernoffWalkCountTest, MatchesEquationTwelve) {
  // W = 2(2ε/3 + 2) log n / (ε² μ).
  const NodeId n = 1000;
  const double eps = 0.5;
  const double mu = 1.0 / n;
  const double expected =
      2.0 * (2.0 * eps / 3.0 + 2.0) * std::log(n) / (eps * eps * mu);
  EXPECT_EQ(ChernoffWalkCount(n, eps, mu),
            static_cast<uint64_t>(std::ceil(expected)));
}

TEST(ChernoffWalkCountTest, ShrinksWithLargerEpsilonAndMu) {
  EXPECT_GT(ChernoffWalkCount(1000, 0.1, 1e-3),
            ChernoffWalkCount(1000, 0.5, 1e-3));
  EXPECT_GT(ChernoffWalkCount(1000, 0.5, 1e-4),
            ChernoffWalkCount(1000, 0.5, 1e-3));
}

TEST(ApproxOptionsTest, ResolvedMuDefaultsToOneOverN) {
  ApproxOptions options;
  EXPECT_DOUBLE_EQ(options.ResolvedMu(100), 0.01);
  options.mu = 0.5;
  EXPECT_DOUBLE_EQ(options.ResolvedMu(100), 0.5);
}

TEST(MonteCarloTest, EstimateSumsToOne) {
  Graph g = PaperExampleGraph();
  ApproxOptions options;
  options.epsilon = 0.5;
  options.mu = 0.05;  // keep W moderate for the test
  Rng rng(3);
  std::vector<double> estimate;
  SolveStats stats = MonteCarlo(g, 0, options, rng, &estimate);
  EXPECT_NEAR(testing::Sum(estimate), 1.0, 1e-9);
  EXPECT_GT(stats.random_walks, 0u);
}

TEST(MonteCarloTest, SatisfiesRelativeErrorGuarantee) {
  Graph g = PaperExampleGraph();
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  ApproxOptions options;
  options.epsilon = 0.3;
  Rng rng(41);
  std::vector<double> estimate;
  MonteCarlo(g, 0, options, rng, &estimate);
  // Every node on this 5-node graph has π >= 1/n; the guarantee applies
  // to all of them.
  EXPECT_LE(MaxRelativeError(estimate, exact, options.ResolvedMu(5)),
            options.epsilon);
}

TEST(MonteCarloTest, WalkCountMatchesFormula) {
  Graph g = CycleGraph(50);
  ApproxOptions options;
  options.epsilon = 0.5;
  options.mu = 0.02;
  Rng rng(7);
  std::vector<double> estimate;
  SolveStats stats = MonteCarlo(g, 0, options, rng, &estimate);
  EXPECT_EQ(stats.random_walks,
            ChernoffWalkCount(50, options.epsilon, options.mu));
}

TEST(MonteCarloTest, TighterEpsilonImprovesAccuracyOnAverage) {
  Graph g = testing::SmallGraphZoo()[7].graph;  // ba_120
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  ApproxOptions loose;
  loose.epsilon = 0.8;
  loose.mu = 1e-2;
  ApproxOptions tight;
  tight.epsilon = 0.2;
  tight.mu = 1e-2;
  double loose_err = 0.0;
  double tight_err = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng_l(seed);
    Rng rng_t(seed + 100);
    std::vector<double> e;
    MonteCarlo(g, 0, loose, rng_l, &e);
    loose_err += L1Distance(e, exact);
    MonteCarlo(g, 0, tight, rng_t, &e);
    tight_err += L1Distance(e, exact);
  }
  EXPECT_LT(tight_err, loose_err);
}

TEST(ChernoffWalkCountTest, BudgetsBeyondTwoToTheFiftyThreeAreRejected) {
  EXPECT_TRUE(CheckWalkBudget(0.0).ok());
  EXPECT_TRUE(CheckWalkBudget(kMaxWalkCount).ok());
  EXPECT_EQ(WalkCount(kMaxWalkCount), uint64_t{1} << 53);
  for (double budget : {kMaxWalkCount * 2.0, 1e300, -1.0,
                        std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(CheckWalkBudget(budget).code(), StatusCode::kInvalidArgument)
        << budget;
  }
  // A valid but tiny mu makes W overflow uint64_t; the count is a
  // checked failure, never an undefined cast.
  EXPECT_FALSE(CheckWalkBudget(ChernoffWalkBudget(50, 0.5, 1e-300)).ok());
  EXPECT_DEATH(ChernoffWalkCount(50, 0.5, 1e-300), "walk budget");
}

TEST(MonteCarloSolverTest, WalkCountsThatDoNotFitAreInvalidArgument) {
  const Graph graph = CycleGraph(50);
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const char* spec : {"mc:mu=1e-300", "mc:eps=1e-300"}) {
    auto solver = registry.Create(spec);
    ASSERT_TRUE(solver.ok()) << spec;
    EXPECT_EQ(solver.value()->Prepare(graph).code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
  auto solver = registry.Create("mc");
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE(solver.value()->Prepare(graph).ok());
  SolverContext context;
  PprResult result;
  EXPECT_EQ(solver.value()->Solve({.mu = 1e-300}, context, &result).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      solver.value()->Solve({.epsilon = 1e-300}, context, &result).code(),
      StatusCode::kInvalidArgument);
  ASSERT_TRUE(solver.value()->Solve({.mu = 0.02}, context, &result).ok());
  EXPECT_EQ(result.stats.random_walks, ChernoffWalkCount(50, 0.5, 0.02));
}

}  // namespace
}  // namespace ppr
