// Conformance for the fused multi-source batch tier (api/batch_solver.h
// + core/multi_source.cc): at every batch size and thread count, a
// fused SolveMany must agree with B independent serial solves of the
// same spec bit for bit: the fused kernel replicates each column's op
// sequence exactly in one serial sweep, and FORA's walk phase is
// thread-count-invariant. The suites are named Batch* so
// scripts/check.sh runs them under TSAN as well.

#include "api/batch_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace ppr {
namespace {

Graph TestGraph() {
  Rng rng(99);
  return BarabasiAlbert(120, 3, rng);
}

std::unique_ptr<Solver> MakeSolver(const std::string& spec,
                                   const Graph& graph) {
  auto created = SolverRegistry::Global().Create(spec);
  EXPECT_TRUE(created.ok()) << spec << ": " << created.status().ToString();
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  EXPECT_TRUE(solver->Prepare(graph).ok()) << spec;
  return solver;
}

std::vector<PprQuery> MakeQueries(const Graph& graph, size_t count) {
  std::vector<PprQuery> queries(count);
  const auto sources = SampleQuerySources(graph, count, /*seed=*/3);
  for (size_t i = 0; i < count; ++i) queries[i].source = sources[i];
  return queries;
}

void ExpectIdentical(const std::vector<double>& a,
                     const std::vector<double>& b,
                     const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t v = 0; v < a.size(); ++v) {
    ASSERT_EQ(a[v], b[v]) << context << " node " << v;
  }
}

// Fused powitr vs the classic (batch=0) serial power iteration: the
// fused power mode replays the serial kernel's per-column op sequence,
// so blocks are bit-identical at every B and every thread count.
TEST(BatchFusedTest, PowitrFusedMatchesClassicSerial) {
  const Graph graph = TestGraph();
  auto classic = MakeSolver("powitr:lambda=1e-6", graph);
  const std::vector<PprQuery> queries = MakeQueries(graph, 8);

  SolverContext serial_context;
  std::vector<PprResult> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(
        classic->Solve(queries[i], serial_context, &expected[i]).ok());
  }

  for (unsigned threads : {1u, 4u}) {
    for (size_t batch : {1u, 2u, 3u, 8u}) {
      const std::string spec = "powitr:lambda=1e-6,batch=" +
                               std::to_string(batch) +
                               ",threads=" + std::to_string(threads);
      auto solver = MakeSolver(spec, graph);
      BatchSolver* fused = solver->AsBatch();
      ASSERT_NE(fused, nullptr) << spec;
      EXPECT_EQ(fused->max_fused(), batch);

      SolverContext context;
      std::vector<PprResult> results;
      std::vector<Status> statuses;
      ASSERT_TRUE(fused->SolveMany(queries, context, &results, &statuses).ok())
          << spec;
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(statuses[i].ok()) << spec;
        ExpectIdentical(results[i].scores, expected[i].scores,
                        spec + " query " + std::to_string(i));
        EXPECT_EQ(results[i].solver, "powitr");
      }
      // A block sweeps the CSR as often as its slowest source iterates,
      // and the kernel counts those sweeps, not the per-query ones.
      uint64_t block_sweeps = 0, query_sweeps = 0;
      for (size_t first = 0; first < results.size(); first += batch) {
        uint64_t slowest = 0;
        for (size_t i = first; i < std::min(first + batch, results.size());
             ++i) {
          slowest = std::max(slowest, results[i].stats.iterations);
          query_sweeps += results[i].stats.iterations;
        }
        block_sweeps += slowest;
      }
      EXPECT_EQ(context.fused_sweeps(), block_sweeps) << spec;
      if (batch > 1) EXPECT_LT(context.fused_sweeps(), query_sweeps) << spec;
    }
  }
}

// Fused fwdpush vs per-query Solve on the same spec (batch= switches
// the whole spec onto the deterministic node-ordered scan discipline,
// so the B=1 DoSolve path IS the independent-serial baseline).
TEST(BatchFusedTest, FwdpushFusedMatchesPerQuerySolve) {
  const Graph graph = TestGraph();
  const std::vector<PprQuery> queries = MakeQueries(graph, 8);

  for (unsigned threads : {1u, 4u}) {
    for (size_t batch : {1u, 2u, 3u, 8u}) {
      const std::string spec = "fwdpush:rmax=1e-6,batch=" +
                               std::to_string(batch) +
                               ",threads=" + std::to_string(threads);
      auto solver = MakeSolver(spec, graph);
      BatchSolver* fused = solver->AsBatch();
      ASSERT_NE(fused, nullptr) << spec;

      SolverContext serial_context;
      std::vector<PprResult> expected(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(
            solver->Solve(queries[i], serial_context, &expected[i]).ok());
      }

      SolverContext context;
      std::vector<PprResult> results;
      ASSERT_TRUE(fused->SolveMany(queries, context, &results).ok()) << spec;
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectIdentical(results[i].scores, expected[i].scores,
                        spec + " query " + std::to_string(i));
      }
    }
  }
}

// The advertised certificate survives fusion: every fused fwdpush
// result obeys its ℓ1 bound against the dense exact solution, and
// reserve+residue mass is conserved.
TEST(BatchFusedTest, FwdpushFusedKeepsCertificateAndMass) {
  const Graph graph = PaperExampleGraph();
  auto solver = MakeSolver("fwdpush:rmax=1e-8,batch=4", graph);
  BatchSolver* fused = solver->AsBatch();
  ASSERT_NE(fused, nullptr);

  std::vector<PprQuery> queries(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    queries[v].source = v;
    queries[v].want_residues = true;
  }
  SolverContext context;
  std::vector<PprResult> results;
  ASSERT_TRUE(fused->SolveMany(queries, context, &results).ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    const PprResult& r = results[i];
    ASSERT_FALSE(r.residues.empty());
    EXPECT_NEAR(testing::Sum(r.scores) + testing::Sum(r.residues), 1.0, 1e-12);
    const std::vector<double> exact =
        testing::ExactPprDense(graph, queries[i].source, 0.2);
    double l1 = 0.0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      l1 += std::fabs(r.scores[v] - exact[v]);
    }
    EXPECT_LE(l1, r.l1_bound) << "source " << queries[i].source;
    EXPECT_TRUE(std::isfinite(r.l1_bound));
  }
}

// Fused FORA with explicit seeds is bit-identical to Reseed(seed) +
// Solve of the same spec, at every batch size and thread count: the
// fused scan is serial and the walk phase is thread-count-invariant by
// construction.
TEST(BatchForaTest, FusedBitIdenticalToSeededSerial) {
  const Graph graph = TestGraph();
  const std::vector<PprQuery> queries = MakeQueries(graph, 6);
  std::vector<uint64_t> seeds(queries.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = SplitStream(0xf04a, i).NextUint64();
  }

  for (unsigned threads : {1u, 4u}) {
    for (size_t batch : {1u, 3u, 6u}) {
      const std::string spec = "fora:eps=0.5,batch=" + std::to_string(batch) +
                               ",threads=" + std::to_string(threads);
      auto solver = MakeSolver(spec, graph);
      BatchSolver* fused = solver->AsBatch();
      ASSERT_NE(fused, nullptr) << spec;

      SolverContext serial_context;
      std::vector<PprResult> expected(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        serial_context.Reseed(seeds[i]);
        ASSERT_TRUE(
            solver->Solve(queries[i], serial_context, &expected[i]).ok());
      }

      SolverContext context;
      std::vector<PprResult> results;
      std::vector<Status> statuses;
      ASSERT_TRUE(fused
                      ->SolveMany(queries, context, &results, &statuses,
                                  seeds)
                      .ok())
          << spec;
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectIdentical(results[i].scores, expected[i].scores,
                        spec + " query " + std::to_string(i));
      }
    }
  }
}

// An unseeded SolveMany derives per-query streams from the context RNG,
// so two contexts reseeded identically reproduce each other exactly.
TEST(BatchForaTest, UnseededSolveManyReproducibleFromContextSeed) {
  const Graph graph = TestGraph();
  auto solver = MakeSolver("fora:eps=0.5,batch=4", graph);
  BatchSolver* fused = solver->AsBatch();
  ASSERT_NE(fused, nullptr);
  const std::vector<PprQuery> queries = MakeQueries(graph, 4);

  std::vector<PprResult> first, second;
  SolverContext a(/*seed=*/42), b(/*seed=*/42);
  ASSERT_TRUE(fused->SolveMany(queries, a, &first).ok());
  ASSERT_TRUE(fused->SolveMany(queries, b, &second).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectIdentical(first[i].scores, second[i].scores,
                    "query " + std::to_string(i));
  }
}

// Top-k early retirement changes the work, never the answer set: the
// returned top-k ids match the non-early run as a set, and the early
// run performs no more sweeps. With topk_early the solver stops
// claiming an ℓ1 bound for top-k queries (the retired columns' rsum
// sits above the certificate).
TEST(BatchTopKEarlyTest, SetEqualWithFewerSweeps) {
  const Graph graph = TestGraph();
  constexpr size_t kTopK = 5;
  const std::vector<PprQuery> base = MakeQueries(graph, 8);
  std::vector<PprQuery> queries = base;
  for (PprQuery& q : queries) q.top_k = kTopK;

  auto run = [&](const std::string& spec, std::vector<PprResult>* results) {
    auto solver = MakeSolver(spec, graph);
    BatchSolver* fused = solver->AsBatch();
    ASSERT_NE(fused, nullptr) << spec;
    SolverContext context;
    ASSERT_TRUE(fused->SolveMany(queries, context, results).ok()) << spec;
  };

  std::vector<PprResult> plain, early;
  run("fwdpush:rmax=1e-7,batch=8", &plain);
  run("fwdpush:rmax=1e-7,batch=8,topk_early=1", &early);

  uint64_t plain_iters = 0, early_iters = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<NodeId> a = plain[i].top_nodes;
    std::vector<NodeId> b = early[i].top_nodes;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "top-k set changed for query " << i;
    EXPECT_TRUE(std::isfinite(plain[i].l1_bound));
    EXPECT_TRUE(std::isinf(early[i].l1_bound));
    plain_iters += plain[i].stats.iterations;
    early_iters += early[i].stats.iterations;
  }
  EXPECT_LE(early_iters, plain_iters);
}

// One bad query fails alone: its status is InvalidArgument while the
// rest of the block solves normally.
TEST(BatchFusedTest, PerQueryValidationDoesNotPoisonTheBlock) {
  const Graph graph = TestGraph();
  auto solver = MakeSolver("powitr:lambda=1e-5,batch=4", graph);
  BatchSolver* fused = solver->AsBatch();
  ASSERT_NE(fused, nullptr);

  std::vector<PprQuery> queries = MakeQueries(graph, 3);
  queries[1].source = graph.num_nodes() + 7;  // out of range

  SolverContext context;
  std::vector<PprResult> results;
  std::vector<Status> statuses;
  const Status first =
      fused->SolveMany(queries, context, &results, &statuses);
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(results[0].scores.size(), graph.num_nodes());
  EXPECT_TRUE(results[1].scores.empty());
  EXPECT_EQ(results[2].scores.size(), graph.num_nodes());
}

// n·B must fit the NodeId block index; a graph big enough to overflow
// it at batch=4096 is rejected up front instead of corrupting offsets.
TEST(BatchFusedTest, RejectsBlockIndexOverflow) {
  const NodeId n =
      static_cast<NodeId>(std::numeric_limits<NodeId>::max() / 4096 + 2);
  const Graph graph = PathGraph(n);
  auto solver = MakeSolver("powitr:lambda=1e-2,batch=4096", graph);
  BatchSolver* fused = solver->AsBatch();
  ASSERT_NE(fused, nullptr);

  std::vector<PprQuery> queries(1);
  SolverContext context;
  std::vector<PprResult> results;
  std::vector<Status> statuses;
  const Status status =
      fused->SolveMany(queries, context, &results, &statuses);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kInvalidArgument);
}

// Registry option validation: batch caps at 4096, topk_early requires a
// batch, and speedppr/prioritypush do not accept batch at all.
TEST(BatchFusedTest, RegistryOptionValidation) {
  EXPECT_FALSE(SolverRegistry::Global().Create("powitr:batch=4097").ok());
  EXPECT_FALSE(SolverRegistry::Global().Create("powitr:topk_early=1").ok());
  EXPECT_FALSE(SolverRegistry::Global().Create("speedppr:batch=4").ok());
  EXPECT_FALSE(SolverRegistry::Global().Create("prioritypush:batch=4").ok());
  auto ok = SolverRegistry::Global().Create("fwdpush:batch=16,topk_early=1");
  EXPECT_TRUE(ok.ok());
}

}  // namespace
}  // namespace ppr
