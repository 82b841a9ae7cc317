// The output-sensitive fwdpush path: the kernel reports its support,
// the context exports by zero-fill plus scatter, and Solve takes top-k
// over the support. Each test pins it to the dense path it replaced.

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

TEST(LocalSolveTest, ReusedResultKeepsNothingFromEarlierQueries) {
  // Two disjoint components, so consecutive queries have disjoint
  // supports: every entry the first answer set must read 0 in the second.
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
  const Graph graph = builder.Build(options);
  const NodeId n = graph.num_nodes();
  ASSERT_EQ(n, a.num_nodes() + b.num_nodes());

  auto solver = MakeSolver("fwdpush:rmax=1e-6", graph);
  auto fresh = [&](const PprQuery& query) {
    SolverContext context;
    PprResult result;
    EXPECT_TRUE(solver->Solve(query, context, &result).ok());
    return result;
  };

  SolverContext context;
  PprResult result;
  // Entries a caller left behind must not be trusted either.
  result.scores.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.residues.assign(n + 3, 7.0);
  result.top_nodes = {1, 2, 3};

  const PprQuery in_a{.source = 3, .top_k = kTopK, .want_residues = true};
  ASSERT_TRUE(solver->Solve(in_a, context, &result).ok());
  const PprResult first = fresh(in_a);
  ExpectSameAnswer(result, first, "first query");

  const PprQuery in_b{.source = offset + 3, .top_k = 3 * n};
  ASSERT_TRUE(solver->Solve(in_b, context, &result).ok());
  ExpectSameAnswer(result, fresh(in_b), "second query");
  EXPECT_TRUE(result.residues.empty());
  EXPECT_GT(std::count_if(first.scores.begin(), first.scores.begin() + offset,
                          [](double x) { return x != 0.0; }),
            20);
  for (NodeId v = 0; v < offset; ++v) {
    ASSERT_EQ(result.scores[v], 0.0) << "stale entry at " << v;
  }
  EXPECT_EQ(result.top_nodes, TopK(result.scores, 3 * n));
}

TEST(LocalSolveTest, SupportNeverOutlivesTheSolveThatExportedIt) {
  // pagerank fills its scores without the context's export, so a support
  // left from the fwdpush query before it must not steer its top-k.
  const Graph graph = testing::SmallGraphZoo()[8].graph;  // chunglu_150
  auto fwdpush = MakeSolver("fwdpush:rmax=0.01", graph);
  auto pagerank = MakeSolver("pagerank", graph);
  SolverContext context;
  PprResult result;
  const PprQuery query{.source = 4, .top_k = 40};
  ASSERT_TRUE(fwdpush->Solve(query, context, &result).ok());
  ASSERT_NE(context.exported_support(), nullptr);
  ASSERT_LT(context.exported_support()->size(), graph.num_nodes() / 2);
  ASSERT_TRUE(pagerank->Solve(query, context, &result).ok());
  EXPECT_EQ(context.exported_support(), nullptr);
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
