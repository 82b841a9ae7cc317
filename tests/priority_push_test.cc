#include "core/priority_push.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/forward_push.h"
#include "test_util.h"
#include "util/cancellation.h"

namespace ppr {
namespace {

using testing::ExactPprDense;
using testing::Sum;

TEST(PriorityPushTest, TerminationInvariant) {
  for (auto& tc : testing::SmallGraphZoo()) {
    ForwardPushOptions options;
    options.rmax = 1e-5;
    PprEstimate estimate;
    PriorityForwardPush(tc.graph, 0, options, &estimate);
    for (NodeId v = 0; v < tc.graph.num_nodes(); ++v) {
      ASSERT_LE(estimate.residue[v],
                static_cast<double>(EffectiveDegree(tc.graph, v)) *
                        options.rmax +
                    1e-15)
          << tc.name << " v=" << v;
    }
    EXPECT_NEAR(Sum(estimate.reserve) + Sum(estimate.residue), 1.0, 1e-10)
        << tc.name;
  }
}

TEST(PriorityPushTest, MatchesExactWithinBound) {
  for (auto& tc : testing::SmallGraphZoo()) {
    std::vector<double> exact = ExactPprDense(tc.graph, 0, 0.2);
    ForwardPushOptions options;
    options.rmax = 1e-7 / static_cast<double>(tc.graph.num_edges());
    PprEstimate estimate;
    PriorityForwardPush(tc.graph, 0, options, &estimate);
    for (NodeId v = 0; v < tc.graph.num_nodes(); ++v) {
      ASSERT_NEAR(estimate.reserve[v], exact[v], 1e-6)
          << tc.name << " v=" << v;
    }
  }
}

TEST(PriorityPushTest, SameGuaranteeAsFifoDifferentPath) {
  // FIFO and priority ordering must land on answers within the shared
  // m*rmax error bound of each other, despite different push orders.
  Graph g = testing::SmallGraphZoo()[8].graph;
  ForwardPushOptions options;
  options.rmax = 1e-6;
  PprEstimate fifo;
  FifoForwardPush(g, 0, options, &fifo);
  PprEstimate priority;
  PriorityForwardPush(g, 0, options, &priority);
  double l1 = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    l1 += std::fabs(fifo.reserve[v] - priority.reserve[v]);
  }
  EXPECT_LE(l1, 2.0 * g.num_edges() * options.rmax);
}

TEST(PriorityPushTest, NeverMorePushesThanFifoNeedsAtEqualRsum) {
  // Greedy max-benefit pushes extract the most mass per edge touched, so
  // reaching the same rsum must not need more edge pushes than FIFO.
  // (Wall clock is another story — that is the ablation bench's job.)
  Graph g = testing::SmallGraphZoo()[7].graph;  // ba_120
  ForwardPushOptions options;
  options.rmax = 1e-9;
  options.stop_rsum = 1e-3;
  PprEstimate est;
  SolveStats fifo = FifoForwardPush(g, 0, options, &est);
  SolveStats priority = PriorityForwardPush(g, 0, options, &est);
  EXPECT_LE(priority.edge_pushes, fifo.edge_pushes + g.num_edges() / 10);
}

TEST(PriorityPushTest, StopRsumRespected) {
  Graph g = testing::SmallGraphZoo()[6].graph;
  ForwardPushOptions options;
  options.rmax = 1e-10;
  options.stop_rsum = 0.25;
  PprEstimate estimate;
  SolveStats stats = PriorityForwardPush(g, 0, options, &estimate);
  EXPECT_LE(stats.final_rsum, 0.25);
}

TEST(PriorityPushTest, CancelStopsThePushLoop) {
  // The loop polls options.cancel every 1024 pushes, starting with the
  // first, so an already-cancelled token stops it before any push while
  // an idle token lets it finish.
  Graph g = testing::SmallGraphZoo()[6].graph;
  ForwardPushOptions options;
  options.rmax = 1e-10;
  CancelToken token;
  options.cancel = &token;
  PprEstimate finished;
  EXPECT_GT(PriorityForwardPush(g, 0, options, &finished).push_operations,
            0u);
  token.RequestCancel();
  PprEstimate stopped;
  const SolveStats stats = PriorityForwardPush(g, 0, options, &stopped);
  EXPECT_EQ(stats.push_operations, 0u);
  EXPECT_EQ(stats.final_rsum, 1.0);
}

TEST(PriorityPushTest, DeadEndsHandled) {
  Graph g = PathGraph(5);
  ForwardPushOptions options;
  options.rmax = 1e-9;
  PprEstimate estimate;
  PriorityForwardPush(g, 0, options, &estimate);
  std::vector<double> exact = ExactPprDense(g, 0, 0.2);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_NEAR(estimate.reserve[v], exact[v], 1e-7);
  }
}

}  // namespace
}  // namespace ppr
