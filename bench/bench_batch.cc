// Fused multi-source batch tier: time-per-query of one SolveMany block
// versus the same queries solved one by one, swept over the block size
// B, plus the served path (PprServer with max_batch coalescing). Emits
// BENCH_batch.json so the fusion win is trackable across commits. Fused
// rows also carry csr_sweeps, the CSR sweeps the fused kernel counted
// (SolverContext::fused_sweeps) over one SolveMany of all queries: a
// deterministic figure that falls with B only if blocks really share
// their sweeps.
//
// Expected shape: time_per_query_ms falls as B grows — a block of B
// sources shares one CSR traversal per sweep instead of paying B — and
// flattens once the block matrices outgrow cache. The served rows show
// the same trend, damped by queueing and per-query stamping overhead.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "api/batch_solver.h"
#include "api/registry.h"
#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "serve/ppr_server.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main() {
  using namespace ppr;

  bench::PrintHeader(
      "Fused batch execution: time per query vs block size",
      "64 queries answered as blocks of B = 1, 4, 16, 64 through the\n"
      "fused multi-source kernel (powitr:batch=B), directly and through\n"
      "PprServer coalescing (max_batch=B, 2 workers). Best of 2 reps.");

  // The query count is fixed at 64 — exactly one fused call at the
  // largest block size — and deliberately ignores PPR_BENCH_QUERIES:
  // CI's smoke value of 1 could not exercise any batch > 1, and the
  // B-sweep is only meaningful when every B divides the workload.
  constexpr size_t kQueries = 64;
  const std::vector<size_t> kBatches = {1, 4, 16, 64};
  constexpr int kReps = 2;

  bench::BenchJsonWriter json("batch");

  for (auto& named : LoadBenchDatasets(bench::kApproxScale, /*max_count=*/2)) {
    Graph& graph = named.graph;
    std::printf("\n--- %s (n=%u, m=%llu, %zu queries) ---\n",
                named.paper_name.c_str(), graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()), kQueries);
    const auto sources = SampleQuerySources(graph, kQueries);
    std::vector<PprQuery> queries(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) queries[i].source = sources[i];

    TablePrinter table(
        {"mode", "batch", "wall(s)", "ms/query", "qps", "qps/worker"});
    auto emit = [&](const char* mode, size_t batch, unsigned workers,
                    double wall_seconds) -> bench::BenchJsonWriter::Record& {
      const double per_query_ms =
          wall_seconds * 1e3 / static_cast<double>(kQueries);
      const double qps = static_cast<double>(kQueries) / wall_seconds;
      char row[4][32];
      std::snprintf(row[0], sizeof(row[0]), "%.3f", wall_seconds);
      std::snprintf(row[1], sizeof(row[1]), "%.3f", per_query_ms);
      std::snprintf(row[2], sizeof(row[2]), "%.0f", qps);
      std::snprintf(row[3], sizeof(row[3]), "%.0f", qps / workers);
      table.AddRow({mode, std::to_string(batch), row[0], row[1], row[2],
                    row[3]});
      return json.Add()
          .Str("dataset", named.name)
          .Str("solver", "powitr:batch=" + std::to_string(batch) +
                             ",lambda=1e-4")
          .Str("mode", mode)
          .Int("batch", batch)
          .Int("queries", kQueries)
          .Int("workers", workers)
          .Num("wall_seconds", wall_seconds)
          .Num("time_per_query_ms", per_query_ms)
          .Num("qps", qps)
          .Num("qps_per_worker", qps / workers);
    };

    for (size_t batch : kBatches) {
      const std::string spec =
          "powitr:batch=" + std::to_string(batch) + ",lambda=1e-4";

      // Direct fused solve: one caller, one context, blocks of B.
      auto created = SolverRegistry::Global().Create(spec);
      PPR_CHECK(created.ok()) << created.status().ToString();
      auto solver = std::move(created).ValueOrDie();
      PPR_CHECK_OK(solver->Prepare(graph));
      BatchSolver* fused = solver->AsBatch();
      PPR_CHECK(fused != nullptr);
      double fused_best = std::numeric_limits<double>::infinity();
      std::vector<PprResult> results;
      uint64_t csr_sweeps = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        SolverContext context;
        Timer timer;
        PPR_CHECK_OK(fused->SolveMany(queries, context, &results));
        fused_best = std::min(fused_best, timer.ElapsedSeconds());
        csr_sweeps = context.fused_sweeps();
      }
      emit("fused", batch, /*workers=*/1, fused_best)
          .Int("csr_sweeps", csr_sweeps);

      // Served: the same spec behind PprServer coalescing. SolveBatch
      // keeps the queue full, so workers actually find neighbors to
      // drain whenever max_batch allows it.
      PprServerOptions options;
      options.workers = 2;
      options.queue_capacity = 128;
      options.max_batch = batch;
      PprServer server(options);
      PPR_CHECK_OK(server.AddSolver(spec, graph));
      PPR_CHECK_OK(server.Start());
      double served_best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<PprResult> results;
        Timer timer;
        PPR_CHECK_OK(server.SolveBatch(queries, &results));
        served_best = std::min(served_best, timer.ElapsedSeconds());
      }
      const uint64_t coalesced = server.Snapshot().coalesced;
      server.Stop();
      emit("served", batch, options.workers, served_best);
      if (batch > 1) {
        std::printf("  served batch=%zu: %llu of %llu queries coalesced\n",
                    batch, static_cast<unsigned long long>(coalesced),
                    static_cast<unsigned long long>(kQueries * kReps));
      }
    }
    std::printf("%s", table.ToString().c_str());
  }
  json.Write();
  std::printf(
      "\nExpected shape: fused ms/query strictly falls from B=1 to B=16\n"
      "(one adjacency pass amortized over the block); served rows follow\n"
      "with queueing overhead on top.\n");
  return 0;
}
