// Thread-scaling and storage-layout bench for the parallel hot paths:
//
//   1. the shared Monte-Carlo walk phase (ResidueWalkPhase) on a
//      SpeedPPR-shaped residue fixture,
//   2. registry end-to-end time per query for speedppr at each threads=
//      setting,
//   3. the order= CSR layouts (none/degree/bfs) for powerpush and
//      speedppr.
//
// Expected shape: near-linear walk-phase scaling (independent per-node
// streams, balanced chunks); speedppr scales only by its walk phase,
// since its PowerPush and refinement stages are serial at every
// threads= setting (as are all dense kernels, so they are not swept
// here); degree/BFS layouts help on hub-heavy graphs. Emits
// BENCH_scaling.json (PPR_BENCH_JSON_DIR) to seed the perf trajectory.
//
// Workload: one generated Barabasi-Albert graph, ~1M edges at the
// default scale (PPR_BENCH_SCALE multiplies the node count).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/registry.h"
#include "approx/monte_carlo.h"
#include "approx/residue_walks.h"
#include "bench_common.h"
#include "core/forward_push.h"
#include "core/power_push.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main() {
  using namespace ppr;
  bench::PrintHeader(
      "Thread scaling: walk phase, speedppr, order= layouts",
      "Generated BA graph (~1M edges at scale 1). threads=1 is the\n"
      "serial baseline; every result is bit-identical across thread\n"
      "counts.");

  const NodeId nodes = static_cast<NodeId>(125000 * BenchScaleFromEnv());
  Rng graph_rng(7);
  Graph graph = BarabasiAlbert(nodes, 8, graph_rng);
  const NodeId n = graph.num_nodes();
  const EdgeId m = graph.num_edges();
  std::printf("graph: n=%s m=%s (hardware threads: %u)\n\n",
              HumanCount(n).c_str(), HumanCount(m).c_str(),
              ParallelThreadCount());

  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  const double alpha = 0.2;
  const double eps = 0.5;
  const NodeId source = SampleQuerySources(graph, 1, 5)[0];
  bench::BenchJsonWriter json("scaling");

  // ---- 1. Walk phase on the SpeedPPR residue fixture. ----------------
  // Phase 1 (PowerPush to lambda = m/W plus the O(m) refinement) runs
  // once outside the timed region; the fixture guarantees W_v <= d_v,
  // i.e. at most m walks — the workload every SpeedPPR query pays.
  const uint64_t w = ChernoffWalkCount(n, eps, 1.0 / n);
  PprEstimate fixture;
  fixture.Reset(n, source);
  {
    PowerPushOptions options;
    options.alpha = alpha;
    options.lambda = static_cast<double>(m) / static_cast<double>(w);
    PowerPush(graph, source, options, &fixture);
    FifoForwardPushRefine(graph, source, alpha, 1.0 / static_cast<double>(w),
                          &fixture);
  }

  TablePrinter walk_table({"threads", "walk phase (s)", "speedup", "walks"});
  double walk_serial = 0.0;
  for (unsigned threads : thread_counts) {
    constexpr int kReps = 3;
    double best = 1e100;
    uint64_t walks = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<double> out(n, 0.0);
      SolveStats stats;
      Rng rng(42);
      Timer timer;
      ResidueWalkPhase(graph, fixture.residue, w, alpha, rng,
                       /*index=*/nullptr, &out, &stats, threads);
      best = std::min(best, timer.ElapsedSeconds());
      walks = stats.random_walks;
    }
    if (threads == 1) walk_serial = best;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", walk_serial / best);
    walk_table.AddRow({std::to_string(threads), HumanSeconds(best), speedup,
                       HumanCount(walks)});
    json.Add()
        .Str("section", "walk_phase")
        .Int("threads", threads)
        .Num("seconds", best)
        .Num("speedup", walk_serial / best)
        .Int("walks", walks);
  }
  std::printf("%s\n", walk_table.ToString().c_str());

  // ---- 2. Registry end-to-end time per query. ------------------------
  const auto sources = SampleQuerySources(graph, BenchQueryCount(2), 3);
  TablePrinter e2e_table({"solver spec", "time/query (s)", "speedup"});
  double e2e_serial = 0.0;
  for (unsigned threads : thread_counts) {
    const std::string spec =
        "speedppr:eps=0.5,threads=" + std::to_string(threads);
    auto created = SolverRegistry::Global().Create(spec);
    PPR_CHECK(created.ok()) << created.status().ToString();
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    PPR_CHECK(solver->Prepare(graph).ok());
    SolverContext context;
    const double mean = Mean(TimePerQuery(*solver, context, sources));
    if (threads == 1) e2e_serial = mean;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", e2e_serial / mean);
    e2e_table.AddRow({spec, HumanSeconds(mean), speedup});
    json.Add()
        .Str("section", "end_to_end")
        .Str("spec", spec)
        .Int("threads", threads)
        .Num("seconds", mean)
        .Num("speedup", e2e_serial / mean);
  }
  std::printf("%s\n", e2e_table.ToString().c_str());

  // ---- 3. order= storage layouts. ------------------------------------
  TablePrinter layout_table({"solver", "order", "time/query (s)", "vs none"});
  for (const char* solver_name : {"powerpush", "speedppr"}) {
    double baseline = 0.0;
    for (const char* order : {"none", "degree", "bfs"}) {
      const std::string spec =
          std::string(solver_name) + ":order=" + order;
      auto created = SolverRegistry::Global().Create(spec);
      PPR_CHECK(created.ok()) << created.status().ToString();
      std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
      PPR_CHECK(solver->Prepare(graph).ok());
      SolverContext context;
      const double mean = Mean(TimePerQuery(*solver, context, sources));
      if (baseline == 0.0) baseline = mean;
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.2fx", baseline / mean);
      layout_table.AddRow({solver_name, order, HumanSeconds(mean), ratio});
      json.Add()
          .Str("section", "layout")
          .Str("solver", solver_name)
          .Str("order", order)
          .Num("seconds", mean)
          .Num("vs_none", baseline / mean);
    }
  }
  std::printf("%s\n", layout_table.ToString().c_str());

  json.Write();
  return 0;
}
