#include "core/forward_push.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "test_util.h"

namespace ppr {
namespace {

using testing::ExactPprDense;
using testing::Sum;

TEST(ForwardPushTest, TerminationInvariantEquation7) {
  // On termination every residue obeys r(s,v) <= d_v * rmax and the ℓ1
  // error equals the residue sum (Equation (7)).
  for (auto& tc : testing::SmallGraphZoo()) {
    ForwardPushOptions options;
    options.rmax = 1e-5;
    PprEstimate estimate;
    SolveStats stats = FifoForwardPush(tc.graph, 0, options, &estimate);
    for (NodeId v = 0; v < tc.graph.num_nodes(); ++v) {
      ASSERT_LE(estimate.residue[v],
                static_cast<double>(EffectiveDegree(tc.graph, v)) *
                        options.rmax +
                    1e-15)
          << tc.name << " v=" << v;
    }
    EXPECT_NEAR(stats.final_rsum, estimate.ResidueSum(), 1e-9) << tc.name;
  }
}

TEST(ForwardPushTest, L1ErrorBoundedByMRmax) {
  Graph g = PaperExampleGraph();
  std::vector<double> exact = ExactPprDense(g, 0, 0.2);
  ForwardPushOptions options;
  options.rmax = 1e-6;
  PprEstimate estimate;
  FifoForwardPush(g, 0, options, &estimate);
  double l1 = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    l1 += std::abs(estimate.reserve[v] - exact[v]);
  }
  EXPECT_LE(l1, static_cast<double>(g.num_edges()) * options.rmax + 1e-12);
}

TEST(ForwardPushTest, ResidueSumIsExactL1Error) {
  Graph g = PaperExampleGraph();
  std::vector<double> exact = ExactPprDense(g, 1, 0.2);
  ForwardPushOptions options;
  options.rmax = 1e-4;
  PprEstimate estimate;
  FifoForwardPush(g, 1, options, &estimate);
  double l1 = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    l1 += exact[v] - estimate.reserve[v];  // underestimate everywhere
  }
  EXPECT_NEAR(l1, estimate.ResidueSum(), 1e-10);
}

TEST(ForwardPushTest, MassConservation) {
  for (auto& tc : testing::SmallGraphZoo()) {
    ForwardPushOptions options;
    options.rmax = 1e-4;
    PprEstimate estimate;
    FifoForwardPush(tc.graph, 0, options, &estimate);
    EXPECT_NEAR(Sum(estimate.reserve) + Sum(estimate.residue), 1.0, 1e-10)
        << tc.name;
  }
}

TEST(ForwardPushTest, FirstPushMatchesPaperFigure2) {
  // Figure 2, step 1: pushing v1 gives π̂(v1) = 0.2 and residues 0.4 on
  // both out-neighbors v2, v3. Verify via a one-push-only run (rmax
  // large enough that v2, v3 with degree 4 and 2 stay inactive:
  // 0.4 <= d*rmax needs rmax >= 0.2; the source's first push still
  // happens because residue 1 > 2*0.2).
  Graph g = PaperExampleGraph();
  ForwardPushOptions options;
  options.rmax = 0.2;
  PprEstimate estimate;
  SolveStats stats = FifoForwardPush(g, 0, options, &estimate);
  EXPECT_EQ(stats.push_operations, 1u);
  EXPECT_DOUBLE_EQ(estimate.reserve[0], 0.2);
  EXPECT_DOUBLE_EQ(estimate.residue[1], 0.4);
  EXPECT_DOUBLE_EQ(estimate.residue[2], 0.4);
  EXPECT_DOUBLE_EQ(estimate.residue[0], 0.0);
}

TEST(ForwardPushTest, PaperRmaxReproducesFigure2FinalReserves) {
  // With rmax = 0.099 the run in Figure 2 performs pushes on v1, v3, v2
  // and stops. FIFO order pushes v2 before v3, but the final reserve of
  // the *source* matches, and every termination invariant holds. We
  // check the quantities that are order-independent.
  Graph g = PaperExampleGraph();
  ForwardPushOptions options;
  options.rmax = 0.099;
  PprEstimate estimate;
  FifoForwardPush(g, 0, options, &estimate);
  EXPECT_DOUBLE_EQ(estimate.reserve[0], 0.2);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_LE(estimate.residue[v], g.OutDegree(v) * options.rmax + 1e-15);
  }
  EXPECT_NEAR(Sum(estimate.reserve) + Sum(estimate.residue), 1.0, 1e-12);
}

TEST(ForwardPushTest, SmallerRmaxGivesMoreAccuracy) {
  Graph g = testing::SmallGraphZoo()[8].graph;  // chunglu_150
  std::vector<double> exact = ExactPprDense(g, 0, 0.2);
  double prev_error = 1.0;
  for (double rmax : {1e-3, 1e-5, 1e-7}) {
    ForwardPushOptions options;
    options.rmax = rmax;
    PprEstimate estimate;
    FifoForwardPush(g, 0, options, &estimate);
    double l1 = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      l1 += std::abs(estimate.reserve[v] - exact[v]);
    }
    EXPECT_LT(l1, prev_error);
    prev_error = l1;
  }
  EXPECT_LT(prev_error, 1e-4);
}

TEST(ForwardPushTest, StopRsumHaltsEarly) {
  Graph g = testing::SmallGraphZoo()[6].graph;  // er_100
  ForwardPushOptions options;
  options.rmax = 1e-9;
  options.stop_rsum = 0.5;
  PprEstimate estimate;
  SolveStats stats = FifoForwardPush(g, 0, options, &estimate);
  EXPECT_LE(stats.final_rsum, 0.5);
  // A full run pushes far more.
  options.stop_rsum = 0.0;
  PprEstimate full;
  SolveStats full_stats = FifoForwardPush(g, 0, options, &full);
  EXPECT_GT(full_stats.push_operations, stats.push_operations);
}

TEST(ForwardPushTest, RefineContinuesFromExistingState) {
  Graph g = testing::SmallGraphZoo()[7].graph;  // ba_120
  ForwardPushOptions options;
  options.rmax = 1e-3;
  PprEstimate estimate;
  FifoForwardPush(g, 0, options, &estimate);
  // Refine to a 100x tighter threshold.
  const double tighter = 1e-5;
  FifoForwardPushRefine(g, 0, options.alpha, tighter, &estimate);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_LE(estimate.residue[v],
              static_cast<double>(EffectiveDegree(g, v)) * tighter + 1e-15);
  }
  EXPECT_NEAR(Sum(estimate.reserve) + Sum(estimate.residue), 1.0, 1e-10);
}

TEST(ForwardPushTest, RefineFromConvergedStateIsCheap) {
  Graph g = testing::SmallGraphZoo()[6].graph;
  ForwardPushOptions options;
  options.rmax = 1e-6;
  PprEstimate estimate;
  FifoForwardPush(g, 0, options, &estimate);
  SolveStats stats =
      FifoForwardPushRefine(g, 0, options.alpha, options.rmax, &estimate);
  EXPECT_EQ(stats.push_operations, 0u)
      << "already satisfies the threshold; nothing to push";
}

TEST(ForwardPushTest, DeadEndMassFlowsBackToSource) {
  Graph g = PathGraph(4);  // 0->1->2->3, 3 dead
  ForwardPushOptions options;
  options.rmax = 1e-10;
  PprEstimate estimate;
  FifoForwardPush(g, 0, options, &estimate);
  std::vector<double> exact = ExactPprDense(g, 0, options.alpha);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NEAR(estimate.reserve[v], exact[v], 1e-8) << "v=" << v;
  }
}

TEST(ForwardPushTest, IsolatedSourceDeadEndConverges) {
  // Source is itself a dead end: π(s,s) = 1. The effective-degree rule
  // keeps the push loop finite.
  GraphBuilder b;
  b.AddEdge(1, 2);
  b.AddEdge(2, 1);
  BuildOptions bo;
  bo.remove_isolated = false;
  Graph g = b.Build(bo);
  ASSERT_EQ(g.OutDegree(0), 0u);
  ForwardPushOptions options;
  options.rmax = 1e-8;
  PprEstimate estimate;
  FifoForwardPush(g, 0, options, &estimate);
  EXPECT_NEAR(estimate.reserve[0], 1.0, 1e-6);
  EXPECT_NEAR(estimate.reserve[1], 0.0, 1e-12);
}

TEST(ForwardPushTest, TheoremBoundOnWork) {
  // Theorem 4.3: total edge pushes = O((m/α) ln(1/λ) + m). Verify the
  // concrete constant from the proof: T <= (m/α) ln(1/λ) + 2m.
  for (auto& tc : testing::SmallGraphZoo()) {
    const double m = static_cast<double>(tc.graph.num_edges());
    ForwardPushOptions options;
    options.rmax = 1e-6 / m;
    PprEstimate estimate;
    SolveStats stats = FifoForwardPush(tc.graph, 0, options, &estimate);
    const double lambda = m * options.rmax;
    const double bound = (m / options.alpha) * std::log(1.0 / lambda) + 2 * m;
    EXPECT_LE(static_cast<double>(stats.edge_pushes), bound) << tc.name;
  }
}

/// Support tracking must only add the list: the same bits and counters
/// as the scan-seeded loop, and a list without repeats that covers every
/// nonzero node. Returns the list.
std::vector<NodeId> ExpectTrackedRunMatches(const Graph& g, NodeId source,
                                            ForwardPushOptions options,
                                            const std::string& name) {
  PprEstimate scanned;
  scanned.Reset(g.num_nodes(), source);
  options.assume_initialized = true;  // scan-seeded, untracked
  const SolveStats scan_stats = FifoForwardPush(g, source, options, &scanned);

  PprEstimate tracked;
  tracked.Reset(g.num_nodes(), source);
  std::vector<NodeId> support = {7, 7, 7};  // replaced, not appended to
  options.support = &support;
  const SolveStats stats = FifoForwardPush(g, source, options, &tracked);

  EXPECT_TRUE(testing::BitEqual(tracked.reserve, scanned.reserve)) << name;
  EXPECT_TRUE(testing::BitEqual(tracked.residue, scanned.residue)) << name;
  EXPECT_EQ(stats.push_operations, scan_stats.push_operations) << name;
  EXPECT_EQ(stats.edge_pushes, scan_stats.edge_pushes) << name;
  EXPECT_EQ(stats.final_rsum, scan_stats.final_rsum) << name;

  std::vector<NodeId> sorted = support;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << name << ": a node is listed twice";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (tracked.reserve[v] != 0.0 || tracked.residue[v] != 0.0) {
      EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), v))
          << name << ": nonzero node " << v << " is not listed";
    }
  }
  return support;
}

size_t CountNonzero(const Graph& g, NodeId source, double rmax) {
  ForwardPushOptions options;
  options.rmax = rmax;
  PprEstimate estimate;
  FifoForwardPush(g, source, options, &estimate);
  size_t count = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    count += estimate.reserve[v] != 0.0 || estimate.residue[v] != 0.0;
  }
  return count;
}

TEST(ForwardPushTest, TrackedSupportListsEveryNonzeroNodeOnce) {
  for (auto& tc : testing::SmallGraphZoo()) {
    const NodeId source = tc.graph.num_nodes() / 2;
    for (double rmax : {0.3, 1e-3, 1e-7}) {
      ForwardPushOptions options;
      options.rmax = rmax;
      const std::vector<NodeId> support = ExpectTrackedRunMatches(
          tc.graph, source, options, tc.name + " rmax=" + std::to_string(rmax));
      EXPECT_EQ(support.size(), CountNonzero(tc.graph, source, rmax))
          << tc.name << ": the list holds only nonzero nodes";
    }
    // An early stop leaves a partial state, as a cancelled solve does.
    ForwardPushOptions options;
    options.rmax = 1e-9;
    options.stop_rsum = 0.5;
    ExpectTrackedRunMatches(tc.graph, 0, options, tc.name + " stop_rsum");
  }
}

TEST(ForwardPushTest, TrackedSupportHasNoRepeatsWhenAPushUnderflows) {
  // Two paths from the source meet at node x. Along each, the residue
  // decays to 2 denormal units, which (1 - alpha) * r rounds back to, so
  // x is reached twice with r = 2 units. Its first push adds alpha * r,
  // which rounds to 0, to its reserve: x is zero again when the second
  // path arrives, and would be listed twice. Past x, node z has four
  // out-edges and never exceeds its threshold, so the run ends.
  constexpr NodeId kShort = 3500;
  constexpr NodeId kLong = kShort + 5;
  const NodeId x = 1 + kShort + kLong;
  const NodeId z = x + 1;
  GraphBuilder b;
  NodeId next = 1;
  for (NodeId length : {kShort, kLong}) {
    b.AddEdge(0, next);
    for (NodeId i = 1; i < length; ++i, ++next) b.AddEdge(next, next + 1);
    b.AddEdge(next++, x);
  }
  b.AddEdge(x, z);
  for (NodeId leaf = z + 1; leaf <= z + 4; ++leaf) b.AddEdge(z, leaf);
  const Graph g = b.Build();
  ASSERT_EQ(g.num_nodes(), z + 5);

  ForwardPushOptions options;
  options.rmax = std::numeric_limits<double>::denorm_min();
  const std::vector<NodeId> support =
      ExpectTrackedRunMatches(g, 0, options, "two_paths");
  EXPECT_EQ(std::count(support.begin(), support.end(), x), 1);
}

}  // namespace
}  // namespace ppr
