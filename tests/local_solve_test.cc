// The output-sensitive fwdpush path: the kernel reports its support,
// the context exports by a reset plus scatter (a zero-fill of n, or only
// the previous support of a reused result), and Solve takes top-k over
// the support. Each test pins it to the dense path it replaced or to a
// solve into a fresh result.

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "api/solver.h"
#include "core/forward_push.h"
#include "eval/metrics.h"
#include "graph/graph_builder.h"
#include "graph/permute.h"
#include "test_util.h"
#include "util/cancellation.h"

namespace ppr {
namespace {

using testing::BitEqual;

constexpr double kRmax = 1e-4;
constexpr size_t kTopK = 5;

std::unique_ptr<Solver> MakeSolver(const std::string& spec,
                                   const Graph& graph) {
  auto created = SolverRegistry::Global().Create(spec);
  EXPECT_TRUE(created.ok()) << spec << ": " << created.status().ToString();
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  EXPECT_TRUE(solver->Prepare(graph).ok()) << spec;
  return solver;
}

/// The dense path: a scan-seeded, untracked push on a fresh estimate,
/// mapped from layout ids back to original ids, and TopK over all n.
PprResult DenseReference(const Graph& graph, const std::vector<NodeId>& perm,
                         NodeId source) {
  const Graph layout = perm.empty() ? graph : PermuteGraph(graph, perm);
  auto layout_of = [&](NodeId v) { return perm.empty() ? v : perm[v]; };
  PprEstimate estimate;
  estimate.Reset(graph.num_nodes(), layout_of(source));
  ForwardPushOptions options;
  options.rmax = kRmax;
  options.assume_initialized = true;
  PprResult reference;
  reference.stats =
      FifoForwardPush(layout, layout_of(source), options, &estimate);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    reference.scores.push_back(estimate.reserve[layout_of(v)]);
    reference.residues.push_back(estimate.residue[layout_of(v)]);
  }
  reference.top_nodes = TopK(reference.scores, kTopK);
  return reference;
}

void ExpectSameAnswer(const PprResult& got, const PprResult& want,
                      const std::string& where) {
  EXPECT_TRUE(BitEqual(got.scores, want.scores)) << where;
  EXPECT_TRUE(BitEqual(got.residues, want.residues)) << where;
  EXPECT_EQ(got.top_nodes, want.top_nodes) << where;
  EXPECT_EQ(got.stats.push_operations, want.stats.push_operations) << where;
  EXPECT_EQ(got.stats.edge_pushes, want.stats.edge_pushes) << where;
  EXPECT_EQ(got.stats.iterations, want.stats.iterations) << where;
  EXPECT_EQ(got.stats.final_rsum, want.stats.final_rsum) << where;
}

/// Sparse random graph with many dead ends.
Graph DeadEndGraph() {
  Rng rng(77);
  Graph graph = ErdosRenyi(300, 1.2, rng);
  EXPECT_GT(graph.CountDeadEnds(), 20u);
  return graph;
}

TEST(LocalSolveTest, FwdPushIsBitIdenticalToTheDenseExport) {
  std::vector<testing::TestGraphCase> graphs = testing::SmallGraphZoo();
  graphs.push_back({"dead_ends_300", DeadEndGraph()});
  for (const auto& tc : graphs) {
    for (const char* order : {"none", "degree"}) {
      const std::string spec = "fwdpush:rmax=" + std::to_string(kRmax) +
                               ",order=" + order;
      auto solver = MakeSolver(spec, tc.graph);
      const std::vector<NodeId> perm =
          std::string(order) == "degree" ? DegreeDescendingOrder(tc.graph)
                                         : std::vector<NodeId>{};
      // One warm context and one reused result for every query, so each
      // query after the first runs on a sparse-reset workspace.
      SolverContext context;
      PprResult result;
      const NodeId n = tc.graph.num_nodes();
      for (NodeId source : {NodeId{0}, n / 2, n - 1, NodeId{0}}) {
        const PprQuery query{
            .source = source, .top_k = kTopK, .want_residues = true};
        ASSERT_TRUE(solver->Solve(query, context, &result).ok());
        ExpectSameAnswer(result, DenseReference(tc.graph, perm, source),
                         tc.name + " " + spec + " s=" +
                             std::to_string(source));
      }
      EXPECT_EQ(context.full_assigns(), 1u) << tc.name << " " << spec;
    }
  }
}

/// Two disjoint ErdosRenyi(150, 3) components, ids [0, 150) and
/// [150, 300): queries from one component leave the other all zero.
Graph TwoComponents() {
  Rng rng(5);
  const Graph a = ErdosRenyi(150, 3.0, rng);
  const Graph b = ErdosRenyi(150, 3.0, rng);
  GraphBuilder builder;
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    for (NodeId v : a.OutNeighbors(u)) builder.AddEdge(u, v);
  }
  const NodeId offset = a.num_nodes();
  for (NodeId u = 0; u < b.num_nodes(); ++u) {
    for (NodeId v : b.OutNeighbors(u)) builder.AddEdge(offset + u, offset + v);
  }
  BuildOptions options;
  options.remove_isolated = false;
  Graph graph = builder.Build(options);
  EXPECT_EQ(graph.num_nodes(), a.num_nodes() + b.num_nodes());
  return graph;
}

/// The answer `solver` gives into a fresh result on a fresh context.
PprResult FreshAnswer(Solver& solver, const PprQuery& query) {
  SolverContext context;
  PprResult result;
  EXPECT_TRUE(solver.Solve(query, context, &result).ok());
  return result;
}

TEST(LocalSolveTest, ReusedResultKeepsNothingFromEarlierQueries) {
  // Consecutive queries in different components have disjoint supports:
  // every entry the first answer set must read 0 in the second.
  const Graph graph = TwoComponents();
  const NodeId n = graph.num_nodes();
  const NodeId offset = n / 2;
  auto solver = MakeSolver("fwdpush:rmax=1e-6", graph);

  SolverContext context;
  PprResult result;
  // Entries a caller left behind must not be trusted either.
  result.scores.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.residues.assign(n + 3, 7.0);
  result.top_nodes = {1, 2, 3};

  const PprQuery in_a{.source = 3, .top_k = kTopK, .want_residues = true};
  ASSERT_TRUE(solver->Solve(in_a, context, &result).ok());
  const PprResult first = FreshAnswer(*solver, in_a);
  ExpectSameAnswer(result, first, "first query");
  EXPECT_EQ(context.result_sparse_resets(), 0u);

  const PprQuery in_b{.source = offset + 3, .top_k = 3 * n};
  ASSERT_TRUE(solver->Solve(in_b, context, &result).ok());
  ExpectSameAnswer(result, FreshAnswer(*solver, in_b), "second query");
  EXPECT_EQ(context.result_sparse_resets(), 1u);
  EXPECT_TRUE(result.residues.empty());
  EXPECT_GT(std::count_if(first.scores.begin(), first.scores.begin() + offset,
                          [](double x) { return x != 0.0; }),
            20);
  for (NodeId v = 0; v < offset; ++v) {
    ASSERT_EQ(result.scores[v], 0.0) << "stale entry at " << v;
  }
  EXPECT_EQ(result.top_nodes, TopK(result.scores, 3 * n));
}

TEST(LocalSolveTest, ReusedResultMatchesAFreshOneAfterEveryKindOfSolve) {
  // One context and one result through fwdpush, a dense writer, order=
  // layouts, residues, a cancelled solve and caller edits. After every
  // step the result is bit-identical to a fresh solve, and the counter
  // shows which resets took the support path.
  const Graph graph = TwoComponents();
  const NodeId n = graph.num_nodes();
  const NodeId offset = n / 2;
  auto fwdpush = MakeSolver("fwdpush:rmax=1e-6", graph);
  auto degree = MakeSolver("fwdpush:rmax=1e-6,order=degree", graph);
  auto pagerank = MakeSolver("pagerank", graph);
  const PprQuery in_a{.source = 3, .top_k = kTopK};
  const PprQuery in_b{.source = offset + 7, .top_k = kTopK};
  const PprQuery in_a_residues{
      .source = 11, .top_k = kTopK, .want_residues = true};

  SolverContext context;
  PprResult result;
  uint64_t support_resets = 0;
  auto step = [&](Solver& solver, const PprQuery& query, bool reset_support,
                  const std::string& where) {
    ASSERT_TRUE(solver.Solve(query, context, &result).ok()) << where;
    ExpectSameAnswer(result, FreshAnswer(solver, query), where);
    if (reset_support) support_resets++;
    EXPECT_EQ(context.result_sparse_resets(), support_resets) << where;
  };

  step(*fwdpush, in_a, false, "fresh result: one zero-fill");
  EXPECT_TRUE(result.support_valid);
  step(*fwdpush, in_b, true, "other component");
  step(*fwdpush, in_a_residues, true, "want_residues");
  EXPECT_EQ(result.residues.size(), n);

  step(*pagerank, in_b, false, "dense writer");
  EXPECT_FALSE(result.support_valid);
  step(*fwdpush, in_a, false, "after a dense writer: zero-fill");
  EXPECT_TRUE(result.support_valid);

  // order=: the previous support still describes the vector, so the
  // reset takes it; the remapped answer leaves without one.
  step(*degree, in_b, true, "order=degree");
  EXPECT_FALSE(result.support_valid);
  step(*fwdpush, in_a, false, "after order=degree: zero-fill");

  // A solve cancelled before it starts leaves the result untouched, so
  // the next one may still reset over the support.
  CancelToken cancelled;
  cancelled.RequestCancel();
  context.set_cancel_token(&cancelled);
  EXPECT_EQ(fwdpush->Solve(in_b, context, &result).code(),
            StatusCode::kCancelled);
  context.set_cancel_token(nullptr);
  EXPECT_TRUE(result.support_valid);
  step(*fwdpush, in_b, true, "after a cancelled solve");

  // A caller that clears or resizes the scores keeps the flag; the
  // length check and the bounds check on the support make that safe.
  result.scores.clear();
  step(*fwdpush, in_a, false, "scores cleared: zero-fill");
  result.scores.resize(offset);
  result.scores.resize(n);
  step(*fwdpush, in_b, true, "scores shrunk and regrown");
  result = PprResult{};
  step(*fwdpush, in_a, false, "result replaced: zero-fill");

  // A caller that writes outside the support clears the flag first.
  result.support_valid = false;
  result.scores[offset + 1] = 5.0;
  step(*fwdpush, in_a, false, "caller cleared the flag: zero-fill");
}

TEST(LocalSolveTest, SupportIdsBeyondAShrunkResultAreSkipped) {
  // A result whose support came from a larger graph, cut by the caller
  // to the next graph's size: ids past the new n must not be written.
  const Graph graph = TwoComponents();
  const NodeId half = graph.num_nodes() / 2;
  Rng rng(5);
  const Graph first_component = ErdosRenyi(half, 3.0, rng);
  auto whole = MakeSolver("fwdpush:rmax=1e-6", graph);
  auto part = MakeSolver("fwdpush:rmax=1e-6", first_component);
  SolverContext context;
  PprResult result;
  ASSERT_TRUE(whole->Solve({.source = half + 2}, context, &result).ok());
  ASSERT_TRUE(result.support_valid);
  ASSERT_GT(*std::min_element(result.support.begin(), result.support.end()),
            half - 1);
  result.scores.resize(half);
  result.scores.shrink_to_fit();  // a write past half leaves the buffer
  const PprQuery query{.source = 2, .top_k = kTopK};
  ASSERT_TRUE(part->Solve(query, context, &result).ok());
  EXPECT_EQ(context.result_sparse_resets(), 1u);
  ExpectSameAnswer(result, FreshAnswer(*part, query), "shrunk result");
}

TEST(LocalSolveTest, ReuseGuardCatchesAScoreWrittenOutsideTheSupport) {
  // Debug builds check a reused result before trusting its support;
  // release builds skip the O(n) check and keep the stale entry.
  const Graph graph = TwoComponents();
  auto solver = MakeSolver("fwdpush:rmax=1e-6", graph);
  SolverContext context;
  PprResult result;
  ASSERT_TRUE(solver->Solve({.source = 3}, context, &result).ok());
  result.scores[graph.num_nodes() - 1] = 1.0;
  EXPECT_DEBUG_DEATH(
      {
        const Status status = solver->Solve({.source = 3}, context, &result);
        EXPECT_TRUE(status.ok());
      },
      "outside its support");
}

TEST(LocalSolveTest, SupportNeverOutlivesTheSolveThatExportedIt) {
  // pagerank fills its scores without the context's export, so the
  // support a fwdpush query left on the result must not steer its top-k.
  const Graph graph = testing::SmallGraphZoo()[8].graph;  // chunglu_150
  auto fwdpush = MakeSolver("fwdpush:rmax=0.01", graph);
  auto pagerank = MakeSolver("pagerank", graph);
  SolverContext context;
  PprResult result;
  const PprQuery query{.source = 4, .top_k = 40};
  ASSERT_TRUE(fwdpush->Solve(query, context, &result).ok());
  ASSERT_TRUE(result.support_valid);
  ASSERT_LT(result.support.size(), graph.num_nodes() / 2);
  ASSERT_TRUE(pagerank->Solve(query, context, &result).ok());
  EXPECT_FALSE(result.support_valid);
  EXPECT_EQ(result.top_nodes, TopK(result.scores, query.top_k));
}

TEST(LocalSolveTest, CancelledSolveLeavesTheContextCorrect) {
  Rng rng(11);
  const Graph graph = ErdosRenyi(4000, 8.0, rng);
  auto solver = MakeSolver("fwdpush:rmax=1e-8", graph);
  const PprQuery cancelled_query{.source = 1, .top_k = kTopK};
  const PprQuery next_query{.source = 2, .top_k = kTopK,
                            .want_residues = true};
  PprResult expected, uncancelled;
  {
    SolverContext context;
    ASSERT_TRUE(solver->Solve(next_query, context, &expected).ok());
    ASSERT_TRUE(solver->Solve(cancelled_query, context, &uncancelled).ok());
  }
  // Sweep the deadline until one expires inside the push loop: the
  // solve then stops with pushes done and a partial workspace. Every
  // attempt, stopped or not, must leave the next query exact.
  bool stopped_mid_solve = false;
  std::chrono::microseconds budget(20);
  for (int attempt = 0; attempt < 40 && !stopped_mid_solve; ++attempt) {
    SolverContext context;
    PprResult result;
    ASSERT_TRUE(solver->Solve(next_query, context, &result).ok());  // warm
    CancelToken token;
    token.ArmDeadline(std::chrono::steady_clock::now() + budget);
    context.set_cancel_token(&token);
    result.stats = SolveStats{};
    const Status status = solver->Solve(cancelled_query, context, &result);
    const uint64_t pushes = result.stats.push_operations;
    stopped_mid_solve = status.code() == StatusCode::kDeadlineExceeded &&
                        pushes > 0 &&
                        pushes < uncancelled.stats.push_operations;
    // A solve that failed after its kernel ran leaves no support.
    if (!status.ok() && pushes > 0) EXPECT_FALSE(result.support_valid);
    context.set_cancel_token(nullptr);
    ASSERT_TRUE(solver->Solve(next_query, context, &result).ok());
    ExpectSameAnswer(result, expected,
                     "after attempt " + std::to_string(attempt));
    budget = budget * 3 / 2;
  }
  EXPECT_TRUE(stopped_mid_solve);
}

}  // namespace
}  // namespace ppr
