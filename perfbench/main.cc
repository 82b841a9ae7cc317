// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload highprec|local-topk|serve-closed
//             --seed N --seconds S --trace 0|1
//             [--revision REV] [--trace-out FILE]
//   perfbench --list-metrics
//
// Every input (query sources, per-query seeds) is generated from --seed;
// the library sees only those inputs and a fixed graph. Each timed
// answer is checked outside the timed interval. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. A traced run
// traces every other query, so it also reports its own overhead. perfbench/README.md gives the workload rationale.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/context.h"
#include "api/registry.h"
#include "api/solver.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "serve/ppr_server.h"
#include "support.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ppr::Graph;
using ppr::NodeId;
using ppr::PprQuery;
using ppr::PprResult;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Independent input stream `stream` of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return ppr::SplitMix64(seed * 0x100000001b3ULL + stream).Next() | 1;
}

unsigned Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string revision = "unknown";
  std::string trace_out;
};

/// What one run reports: metric values by catalogue name, the answer
/// checks, and the attempted/failed totals.
struct Report {
  std::map<std::string, double> values;
  CheckTally checks;
  uint64_t attempted = 0;
  uint64_t server_failures = 0;  // failed + shed + rejected + cancelled
  unsigned threads = 1;  // benchmark and server threads in the timed phase
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Note(std::string note) { notes.push_back(std::move(note)); }
};

/// Graph, transpose and prepared state for one set-up, timed by layer.
struct SetupTimes {
  double total = 0, generate = 0, transpose = 0, prepare = 0;
};

/// The workload's graph. Like the paper's datasets it is fixed: the
/// run seed varies the queries and arrivals, not the graph,
/// so runs with different seeds measure the same data.
std::unique_ptr<Graph> MakeGraph(const char* dataset, double scale,
                                 Tracer& tracer, int32_t parent,
                                 SetupTimes* times) {
  auto start = Clock::now();
  auto graph = std::make_unique<Graph>(
      ppr::MakeDataset(ppr::FindDataset(dataset), scale));
  auto mid = Clock::now();
  graph->BuildInAdjacency();
  auto end = Clock::now();
  tracer.Add("graph.generate", start, mid, parent, 0);
  tracer.Add("graph.transpose", mid, end, parent, 0);
  times->generate = Seconds(mid - start);
  times->transpose = Seconds(end - mid);
  return graph;
}

/// Runs `rounds` rounds, each a fresh `setup` (fully replacing the
/// previous state, so every round measures fresh allocations) followed
/// by `measure`. Records the median set-up wall time as setup_s and the
/// per-layer set-up medians.
void RunRounds(Report& report, int rounds,
               const std::function<SetupTimes()>& setup,
               const std::function<void()>& measure) {
  std::vector<double> total, generate, transpose, prepare;
  for (int round = 0; round < rounds; ++round) {
    SetupTimes t = setup();
    total.push_back(t.total);
    generate.push_back(t.generate);
    transpose.push_back(t.transpose);
    prepare.push_back(t.prepare);
    measure();
  }
  report.Set("setup_s", Median(total));
  report.Set("graph.generate_s", Median(generate));
  report.Set("graph.transpose_s", Median(transpose));
  report.Set("api.prepare_s", Median(prepare));
}

/// Per-query observations shared by the solver and serving workloads.
struct QueryLog {
  std::vector<double> latency_ms;   // the end-to-end latency
  std::vector<double> solve_ms;     // timed Solve (solver workloads)
  std::vector<double> kernel_ms;    // SolveStats::seconds, when reported
  std::vector<double> post_ms;      // solve - kernel, when reported
  std::vector<double> topk_ms;      // timed TopK on the returned scores
  std::vector<double> edge_pushes, push_operations, iterations;
  std::vector<double> random_walks, walk_steps;
  double kernel_total_s = 0, solve_total_s = 0;
  double edge_pushes_total = 0, walk_steps_total = 0;
  double final_rsum_max = 0;
  uint64_t kernel_unreported = 0;

  /// Records the work counters of one answered query.
  void AddStats(const ppr::SolveStats& stats, double solve_s) {
    edge_pushes.push_back(stats.edge_pushes);
    push_operations.push_back(stats.push_operations);
    iterations.push_back(stats.iterations);
    random_walks.push_back(stats.random_walks);
    walk_steps.push_back(stats.walk_steps);
    final_rsum_max = std::max(final_rsum_max, stats.final_rsum);
    const double kernel = ReportedKernelSeconds(stats);
    if (kernel < 0) {
      ++kernel_unreported;
      return;
    }
    kernel_ms.push_back(kernel * 1e3);
    kernel_total_s += kernel;
    edge_pushes_total += stats.edge_pushes;
    walk_steps_total += stats.walk_steps;
    if (solve_s > 0) {
      solve_total_s += solve_s;
      post_ms.push_back((solve_s - kernel) * 1e3);
    }
  }

  /// The per-layer metrics every workload derives from its query log.
  void Export(Report& report) const {
    report.Set("api.solve_ms_p50", Median(solve_ms));
    report.Set("core.kernel_ms_p50", Median(kernel_ms));
    report.Set("core.kernel_unreported", kernel_unreported);
    report.Set("api.post_ms_p50", Median(post_ms));
    const double post_total =
        std::accumulate(post_ms.begin(), post_ms.end(), 0.0) * 1e-3;
    report.Set("api.post_share",
               solve_total_s > 0 ? post_total / solve_total_s : 0.0);
    report.Set("api.kernel_share",
               solve_total_s > 0 ? 1.0 - post_total / solve_total_s : 0.0);
    report.Set("eval.topk_ms", Median(topk_ms));
    report.Set("core.edge_pushes", Median(edge_pushes));
    report.Set("core.push_operations", Median(push_operations));
    report.Set("core.iterations", Median(iterations));
    report.Set("approx.random_walks", Median(random_walks));
    report.Set("approx.walk_steps", Median(walk_steps));
    const double kernel_us = kernel_total_s * 1e6;
    report.Set("core.edge_pushes_per_us",
               kernel_us > 0 ? edge_pushes_total / kernel_us : 0.0);
    report.Set("approx.walk_steps_per_us",
               kernel_us > 0 ? walk_steps_total / kernel_us : 0.0);
    // Computed, not measured: each edge push reads a 4-byte target and
    // reads and writes an 8-byte residue; each push operation reads two
    // 8-byte offsets and reads and writes one reserve and one residue.
    report.Set("core.computed_bytes_per_query",
               20.0 * Median(edge_pushes) + 48.0 * Median(push_operations));
    report.Set("core.final_rsum_max", final_rsum_max);
  }
};

/// End-to-end latency metrics of a query log; the tail is the highest
/// percentile at most `tail_cap` with at least ten samples beyond it.
void ExportLatency(const std::vector<double>& latency_ms, double tail_cap,
                   Report& report) {
  report.Set("latency_ms_p50", Median(latency_ms));
  const TailPick tail = PickTail(latency_ms, tail_cap);
  report.Set("latency_ms_tail", tail.value);
  char note[256];
  std::snprintf(note, sizeof(note),
                "latency tail = p%g of %zu samples (%zu beyond)%s; p75 %.4f, "
                "p90 %.4f, p95 %.4f, p99 %.4f ms",
                tail.percentile, latency_ms.size(), tail.beyond,
                tail.percentile < tail_cap ? " -- BELOW THE WORKLOAD'S CAP"
                                           : "",
                Percentile(latency_ms, 75), Percentile(latency_ms, 90),
                Percentile(latency_ms, 95), Percentile(latency_ms, 99));
  report.Note(note);
}

// ===================================================== solver workloads

/// Set-ups per run; a third of the queries is timed after each.
constexpr int kSolverRounds = 3;

/// One caller issuing one query at a time through Solver::Solve.
struct SolverWorkload {
  const char* dataset;
  double scale;
  const char* spec;
  size_t top_k;
  double tail_cap;
  bool reference_powitr;  // check l1 to powitr at the same lambda
};

struct SolverState {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<ppr::Solver> solver;
  std::unique_ptr<ppr::SolverContext> context;
  /// Reused across queries, as Solve allows: a fresh n-vector per query
  /// would add page faults whose cost depends on the allocator's state.
  PprResult result;
};

std::unique_ptr<ppr::Solver> MustCreate(const std::string& spec,
                                        const Graph& graph) {
  auto created = ppr::SolverRegistry::Global().Create(spec);
  PPR_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<ppr::Solver> solver = std::move(created.value());
  PPR_CHECK_OK(solver->Prepare(graph));
  return solver;
}

/// Answers `query`, checks the answer and logs it.
void SolveAndCheck(SolverState& state, const PprQuery& query,
                     QueryLog& log, Report& report, Tracer& tracer,
                     uint64_t id) {
  PprResult& result = state.result;
  const int32_t root = tracer.Open("query", Tracer::kNoParent, id);
  const auto start = Clock::now();
  const ppr::Status status = state.solver->Solve(query, *state.context,
                                                 &result);
  const auto solved = Clock::now();
  tracer.Add("api.solve", start, solved, root, id);
  // Everything below is outside the timed interval.
  const size_t k = query.top_k > 0 ? query.top_k : 10;
  const auto topk_start = Clock::now();
  const std::vector<uint32_t> top = ppr::TopK(result.scores, k);
  const auto topk_end = Clock::now();
  tracer.Add("eval.topk", topk_start, topk_end, root, id);
  tracer.Close(root);
  const double solve_s = Seconds(solved - start);
  if (!report.checks.Record("solve_ok", status.ok())) return;
  report.checks.Record("certificate", CertificateHolds(result));
  report.checks.Record("mass_conservation", MassConserved(result));
  if (query.top_k > 0) {
    report.checks.Record("top_nodes",
                         std::equal(top.begin(), top.end(),
                                    result.top_nodes.begin(),
                                    result.top_nodes.end()));
  }
  log.latency_ms.push_back(solve_s * 1e3);
  log.solve_ms.push_back(solve_s * 1e3);
  log.topk_ms.push_back(Seconds(topk_end - topk_start) * 1e3);
  log.AddStats(result.stats, solve_s);
}

/// Median kernel seconds of `spec` over the first `reps` sources.
double KernelSeconds(const std::string& spec, const Graph& graph,
                     const std::vector<NodeId>& sources, int reps) {
  auto solver = MustCreate(spec, graph);
  ppr::SolverContext context;
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    PprResult result;
    PPR_CHECK_OK(solver->Solve({.source = sources[i % sources.size()]},
                               context, &result));
    seconds.push_back(result.stats.seconds);
  }
  return Median(seconds);
}

void RunSolverWorkload(const SolverWorkload& w, const Args& args,
                       Report& report, Tracer& tracer) {
  SolverState state;
  std::vector<NodeId> sources;
  // The timed phase. A traced run traces every other query and logs
  // the untraced ones apart, so the per-layer numbers come from traced
  // queries and the overhead compares the two halves of one phase.
  Tracer off(false);
  QueryLog untraced, log;
  uint64_t full_assigns = 0, id = 0;
  auto setup = [&]() {
    SetupTimes t;
    // Free the previous set-up first; the graph goes last because the
    // solver points into it.
    state.result = PprResult();
    state.context.reset();
    state.solver.reset();
    state.graph.reset();
    const int32_t root = tracer.Open("setup", Tracer::kNoParent, 0);
    const auto start = Clock::now();
    state.graph = MakeGraph(w.dataset, w.scale,
                            tracer, root, &t);
    const auto prepare_start = Clock::now();
    state.solver = MustCreate(w.spec, *state.graph);
    t.prepare = Seconds(Clock::now() - prepare_start);
    tracer.Add("api.prepare", prepare_start, Clock::now(), root, 0);
    state.context = std::make_unique<ppr::SolverContext>();
    sources = ppr::SampleQuerySources(*state.graph, 512,
                                      SubSeed(args.seed, 2));
    {
      ScopedSpan warm(tracer, "warmup", root);
      for (int i = 0; i < 2; ++i) {
        PprResult result;
        PPR_CHECK_OK(state.solver->Solve(
            {.source = sources[sources.size() - 1 - i], .top_k = w.top_k},
            *state.context, &result));
      }
    }
    t.total = Seconds(Clock::now() - start);
    tracer.Close(root);
    return t;
  };
  auto measure = [&]() {
    const size_t first = log.latency_ms.size();
    const uint64_t assigns_before = state.context->full_assigns();
    const auto end = After(Clock::now(), args.seconds / kSolverRounds);
    while (Clock::now() < end) {
      ++id;
      const bool traced = args.trace && id % 2 == 1;
      const PprQuery query{.source = sources[id % sources.size()],
                           .top_k = w.top_k};
      SolveAndCheck(state, query, args.trace && !traced ? untraced : log,
                    report, traced ? tracer : off, id);
      ++report.attempted;
    }
    full_assigns += state.context->full_assigns() - assigns_before;
    report.Note("round p50 " +
                std::to_string(Median({log.latency_ms.begin() + first,
                                       log.latency_ms.end()})) +
                " ms");
  };
  RunRounds(report, kSolverRounds, setup, measure);
  const Graph& graph = *state.graph;
  report.Set("graph.csr_mb", graph.MemoryBytes() / 1e6);
  report.Set("api.index_mb", state.solver->IndexBytes() / 1e6);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("api.context_full_assigns", full_assigns);

  ExportLatency(log.latency_ms, w.tail_cap, report);
  const double mean_s =
      std::accumulate(log.solve_ms.begin(), log.solve_ms.end(), 0.0) * 1e-3 /
      std::max<size_t>(1, log.solve_ms.size());
  report.Set("throughput_qps", mean_s > 0 ? 1.0 / mean_s : 0.0);
  log.Export(report);
  if (args.trace) {
    report.Set("bench.trace_overhead_share",
               Median(log.latency_ms) / Median(untraced.latency_ms) - 1.0);
  }

  // Reference checks, after the timed phase and outside set-up time.
  if (w.reference_powitr) {
    const double lambda = std::min(1e-8, 1.0 / graph.num_edges());
    auto powitr = MustCreate("powitr", graph);
    ppr::SolverContext context;
    for (int i = 0; i < 2; ++i) {
      const PprQuery query{.source = sources[i], .lambda = lambda};
      PprResult ours, reference;
      PPR_CHECK_OK(state.solver->Solve(query, *state.context, &ours));
      PPR_CHECK_OK(powitr->Solve(query, context, &reference));
      report.checks.Record("l1_vs_powitr",
                           L1Within(ours.scores, reference.scores,
                                    2 * lambda));
    }
    if (args.trace) {
      // Kernel time at one thread against every core, same graph.
      const std::string tmax = ":threads=" + std::to_string(Nproc());
      report.Set("core.powerpush_speedup_tmax",
                 KernelSeconds("powerpush:threads=1", graph, sources, 3) /
                     KernelSeconds("powerpush" + tmax, graph, sources, 3));
      report.Set("core.powitr_speedup_tmax",
                 KernelSeconds("powitr:threads=1", graph, sources, 3) /
                     KernelSeconds("powitr" + tmax, graph, sources, 3));
    }
  }
}

// ==================================================== serving workload

/// serve-closed: one user against a one-worker PprServer, sending its
/// next query as soon as its previous answer arrives, so the worker
/// never idles between queries and no query waits behind another. An
/// open loop at low load left workers idle, and two busy workers ran
/// at speeds that depended on where a shared host placed them; each
/// spread the median latency by 0.2-0.4 across runs. A saturated
/// SolveBatch phase then measures throughput. The generator is the only
/// thread beside the worker.
constexpr const char* kServeDataset = "dblp-sim";
constexpr const char* kServeSpec = "speedppr:eps=0.5,threads=1";
constexpr unsigned kServeWorkers = 1;
constexpr int kServeRounds = 15;  // set-ups; each is under 0.1 s
constexpr double kServeTailCap = 75.0;

struct ServeState {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<ppr::PprServer> server;  // after graph: hosts solvers on it
};

/// One closed-loop send and what came of it.
struct Sent {
  PprQuery query;
  uint64_t seed = 0;
  Clock::time_point scheduled;  // when the previous answer arrived
  Clock::time_point sent;
  double submit_s = 0;
  size_t depth = 0;
  bool admitted = false;
  double latency_s = 0;   // PprFuture::latency_seconds, Submit to done
  ppr::PprFuture future;  // released once the answer is recorded
};

/// Runs one closed-loop user from this thread for `duration` seconds.
/// Each query is sent before the previous answer is handed to
/// `finish`, so recording an answer never idles the worker.
std::vector<Sent> ClosedLoop(ppr::PprServer& server, double duration,
                             const std::vector<NodeId>& sources,
                             uint64_t seed,
                             const std::function<void(Sent&)>& finish) {
  std::vector<Sent> sent;
  ppr::Rng pick(seed);
  auto send = [&](Clock::time_point due) {
    Sent& s = sent.emplace_back();
    s.query = {.source = sources[pick.NextBounded(sources.size())],
               .top_k = 10};
    s.seed = SubSeed(seed, sent.size());
    s.scheduled = due;
    s.depth = server.Snapshot().queue_depth;
    s.sent = Clock::now();
    auto future = server.Submit(s.query, kServeSpec, s.seed);
    s.submit_s = Seconds(Clock::now() - s.sent);
    s.admitted = future.ok();
    if (s.admitted) s.future = future.value();
  };
  const auto end = After(Clock::now(), duration);
  send(Clock::now());
  for (size_t i = 0; i < sent.size(); ++i) {
    Clock::time_point answered = Clock::now();
    if (sent[i].admitted) {
      sent[i].future.Wait();
      answered = After(sent[i].sent, sent[i].future.latency_seconds());
    }
    if (answered < end) send(answered);
    finish(sent[i]);
  }
  return sent;
}

void RunServeWorkload(const Args& args, Report& report, Tracer& tracer) {
  const unsigned workers = kServeWorkers;
  report.threads = workers + 1;
  ServeState state;
  std::vector<NodeId> sources;
  RunRounds(report, kServeRounds, [&]() {
    SetupTimes t;
    state.server.reset();  // stops the workers before its graph goes
    state.graph.reset();
    const int32_t root = tracer.Open("setup", Tracer::kNoParent, 0);
    const auto start = Clock::now();
    state.graph = MakeGraph(kServeDataset, 1.0, tracer, root, &t);
    ppr::PprServerOptions options;
    options.workers = workers;
    options.queue_capacity = 1 << 16;
    options.seed = SubSeed(args.seed, 3);
    state.server = std::make_unique<ppr::PprServer>(options);
    const auto prepare_start = Clock::now();
    PPR_CHECK_OK(state.server->AddSolver(kServeSpec, *state.graph));
    t.prepare = Seconds(Clock::now() - prepare_start);
    tracer.Add("api.prepare", prepare_start, Clock::now(), root, 0);
    PPR_CHECK_OK(state.server->Start());
    sources = ppr::SampleQuerySources(*state.graph, 512,
                                      SubSeed(args.seed, 2));
    {
      ScopedSpan warm(tracer, "warmup", root);  // every pooled context
      std::vector<PprQuery> queries;
      for (size_t i = 0; i < 2 * workers; ++i) {
        queries.push_back({.source = sources[i], .top_k = 10});
      }
      std::vector<PprResult> results;
      PPR_CHECK_OK(state.server->SolveBatch(queries, &results));
    }
    t.total = Seconds(Clock::now() - start);
    tracer.Close(root);
    return t;
  }, [] {});
  ppr::PprServer& server = *state.server;
  const Graph& graph = *state.graph;
  report.Set("graph.csr_mb", graph.MemoryBytes() / 1e6);
  const uint64_t assigns_before = server.context_pool().TotalFullAssigns();

  // Records one answer, outside its timed interval, and releases it.
  // Every 64th answer is kept for the serial re-solve checks. A traced
  // run traces every other answer and logs the others apart for the
  // overhead comparison.
  struct Kept {
    PprQuery query;
    uint64_t seed;
    PprResult result;
  };
  QueryLog log, untraced_log;
  std::vector<double> nonkernel_ms;
  std::vector<Kept> kept;
  Tracer off(false);
  uint64_t next_id = 0;
  auto record = [&](Sent& s) {
    if (!s.admitted) return;
    s.future.Wait();
    s.latency_s = s.future.latency_seconds();
    PprResult result;
    const bool answered = s.future.Get(&result).ok();  // server counts fails
    s.future = ppr::PprFuture();
    const uint64_t id = ++next_id;
    const bool traced = args.trace && id % 2 == 1;
    QueryLog& into = args.trace && !traced ? untraced_log : log;
    Tracer& with = traced ? tracer : off;
    const auto submitted = After(s.sent, s.submit_s);
    const auto completed = After(s.sent, s.latency_s);
    const int32_t root =
        with.Add("query", s.sent, completed, Tracer::kNoParent, id);
    with.Add("serve.submit", s.sent, submitted, root, id);
    with.Add("serve.pending", submitted, completed, root, id);
    if (!answered) return;
    into.latency_ms.push_back(s.latency_s * 1e3);
    into.AddStats(result.stats, 0.0);
    report.checks.Record("top_nodes", TopNodesMatch(result, 10));
    const double kernel = ReportedKernelSeconds(result.stats);
    if (&into == &log && kernel >= 0) {
      nonkernel_ms.push_back((s.latency_s - kernel) * 1e3);
    }
    if (id % 64 == 1) kept.push_back({s.query, s.seed, std::move(result)});
  };
  const std::vector<Sent> sent = ClosedLoop(
      server, 0.6 * args.seconds, sources, SubSeed(args.seed, 6), record);

  // Saturated phase: SolveBatch calls of 16 queries per worker for the
  // rest of the run, so throughput is not capped by the user's round
  // trips; answers are checked between the calls, outside the timed total.
  ppr::Rng pick(SubSeed(args.seed, 9));
  double batch_s = 0;
  size_t batch_queries = 0;
  for (uint64_t c = 0; batch_s < 0.4 * args.seconds; ++c) {
    std::vector<PprQuery> queries(16 * workers);
    for (PprQuery& query : queries) {
      query = {.source = sources[pick.NextBounded(sources.size())],
               .top_k = 10};
    }
    std::vector<PprResult> results;
    const auto batch_start = Clock::now();
    const ppr::Status status = server.SolveBatch(
        queries, &results, kServeSpec, SubSeed(args.seed, 100 + c));
    const auto batch_end = Clock::now();
    tracer.Add("serve.solve_batch", batch_start, batch_end,
               Tracer::kNoParent, 0);
    batch_s += Seconds(batch_end - batch_start);
    batch_queries += queries.size();
    if (!report.checks.Record("solve_batch_ok", status.ok())) break;
    for (const PprResult& result : results) {
      report.checks.Record("top_nodes", TopNodesMatch(result, 10));
    }
  }
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("throughput_qps", batch_queries / batch_s);
  report.attempted += batch_queries + sent.size();

  ExportLatency(log.latency_ms, kServeTailCap, report);
  log.Export(report);
  std::vector<double> submit_us, late_ms, depth;
  for (const Sent& s : sent) {
    late_ms.push_back(Seconds(s.sent - s.scheduled) * 1e3);
    depth.push_back(s.depth);
    submit_us.push_back(s.submit_s * 1e6);
  }
  report.Set("serve.submit_us_p50", Median(submit_us));
  report.Set("serve.nonkernel_ms_p50", Median(nonkernel_ms));
  report.Set("serve.nonkernel_ms_tail",
             PickTail(nonkernel_ms, kServeTailCap).value);
  report.Set("serve.generator_late_ms_max",
             late_ms.empty() ? 0.0
                             : *std::max_element(late_ms.begin(),
                                                 late_ms.end()));
  report.Set("serve.queue_depth_max",
             depth.empty() ? 0.0
                           : *std::max_element(depth.begin(), depth.end()));
  if (args.trace) {
    report.Set("bench.trace_overhead_share",
               Median(log.latency_ms) / Median(untraced_log.latency_ms) -
                   1.0);
  }

  // Sampled serial re-solves: bit-identical to the served answer, and
  // within the advertised bound of a lambda = 1e-10 reference.
  auto serial = MustCreate(kServeSpec, graph);
  auto exact = MustCreate("powerpush:lambda=1e-10", graph);
  report.Set("api.index_mb", serial->IndexBytes() / 1e6);
  ppr::SolverContext context;
  double err_ratio_max = 0;
  for (const Kept& k : kept) {
    PprResult again, reference;
    context.Reseed(k.seed);
    PPR_CHECK_OK(serial->Solve(k.query, context, &again));
    report.checks.Record("served_equals_serial",
                         BitIdentical(k.result, again));
    PPR_CHECK_OK(
        exact->Solve({.source = k.query.source}, context, &reference));
    const double err = ppr::L1Distance(k.result.scores, reference.scores);
    err_ratio_max = std::max(err_ratio_max, err / k.result.l1_bound);
    report.checks.Record("l1_vs_reference", err <= k.result.l1_bound);
  }
  report.Set("approx.l1_err_over_bound_max", err_ratio_max);

  const ppr::PprServerStats stats = server.Snapshot();
  report.checks.Record("counters_reconcile", CountersReconcile(stats));
  report.server_failures =
      stats.failed + stats.shed + stats.rejected + stats.cancelled;
  report.Set("serve.rejected", stats.rejected);
  report.Set("serve.shed", stats.shed);
  report.Set("serve.failed", stats.failed);
  report.Set("serve.cancelled", stats.cancelled);
  report.Set("api.context_full_assigns",
             server.context_pool().TotalFullAssigns() - assigns_before);
}

// ============================================================ workloads

const SolverWorkload kHighPrec = {"pokec-sim", 1.0, "powerpush", 0, 75.0,
                                  true};
const SolverWorkload kLocalTopK = {"lj-sim", 8.0, "fwdpush:rmax=1e-4", 10,
                                   95.0, false};

// ================================================================ output

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Emit(const Args& args, Report& report, const Tracer& tracer) {
  const char* threads_env = std::getenv("PPR_THREADS");
  std::printf("stamp: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %u, \"threads\": %u, "
              "\"PPR_THREADS\": %s, \"compiler\": %s, \"build_type\": %s, "
              "\"revision\": %s}\n",
              JsonString(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, Nproc(), report.threads,
              JsonString(threads_env ? threads_env : "unset").c_str(),
              JsonString(CompilerName()).c_str(),
              JsonString(BuildType()).c_str(),
              JsonString(args.revision).c_str());
  for (const auto& [name, counts] : report.checks.by_name()) {
    std::printf("check %-22s %llu checked, %llu failed\n", name.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  const uint64_t failed = report.server_failures + report.checks.failures();
  const uint64_t attempted = std::max<uint64_t>(report.attempted, 1);
  report.Set("bench.fail_share", static_cast<double>(failed) / attempted);
  if (tracer.enabled()) {
    report.Set("bench.trace_spans", tracer.size());
    std::printf("self time by span (traced phase and set-up):\n");
    for (const auto& [name, self] : tracer.SelfTimes()) {
      std::printf("  %-20s %10.3f ms over %llu spans\n", name.c_str(),
                  self.seconds * 1e3,
                  static_cast<unsigned long long>(self.spans));
    }
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << tracer.ToJsonLines();
    }
  }
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::string metrics;
  for (const MetricDef& def : MetricCatalog()) {
    if (def.end_to_end == args.trace) continue;
    const auto it = report.values.find(def.name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    std::printf("metric %-34s %16.6f %s\n", def.name, value, def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(def.name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(def.unit) + "}";
  }
  const bool correct = report.checks.failures() == 0 && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "highprec|local-topk|serve-closed --seed N "
               "--seconds S --trace 0|1 [--revision REV] [--trace-out "
               "FILE]\n       perfbench --list-metrics\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& def : MetricCatalog()) {
        std::printf("%s %s %s\n", def.name, def.unit,
                    def.end_to_end ? "end_to_end" : "per_layer");
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--revision") {
      args.revision = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  Report report;
  Tracer tracer(args.trace);
  if (args.workload == "highprec") {
    RunSolverWorkload(kHighPrec, args, report, tracer);
  } else if (args.workload == "local-topk") {
    RunSolverWorkload(kLocalTopK, args, report, tracer);
  } else if (args.workload == "serve-closed") {
    RunServeWorkload(args, report, tracer);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  return Emit(args, report, tracer);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
