#ifndef PPR_EVAL_EXPERIMENT_H_
#define PPR_EVAL_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/query.h"
#include "api/solver.h"
#include "graph/datasets.h"
#include "graph/graph.h"

namespace ppr {

/// A materialized bench dataset.
struct NamedGraph {
  std::string name;        ///< e.g. "dblp-sim"
  std::string paper_name;  ///< e.g. "DBLP"
  Graph graph;
  double build_seconds = 0;  ///< wall time of MakeDataset (generate + build)
};

/// Materializes the six paper stand-ins at the given scale (multiplied by
/// PPR_BENCH_SCALE). If PPR_BENCH_DATASETS is set to a comma-separated
/// list of names, only those are produced — handy for quick iterations.
/// `max_count` (0 = all) truncates the list for expensive benches.
std::vector<NamedGraph> LoadBenchDatasets(double scale = 1.0,
                                          size_t max_count = 0);

/// Mean and median of a sample (seconds, errors, ...).
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);

/// Nearest-rank percentile of a sample — the latency reporter for the
/// serve path (p=50/p=99 in bench_serve and ppr_cli --serve). Defined
/// for every input: an empty sample reports 0.0, p is clamped into
/// [0, 100] (NaN behaves as 0), p=0 is the sample minimum and p=100
/// the maximum.
double Percentile(std::vector<double> values, double p);

/// Times `fn` over each source and returns per-source seconds.
std::vector<double> TimePerQuery(const std::vector<NodeId>& sources,
                                 const std::function<void(NodeId)>& fn);

/// Times one prepared Solver over each source (base.source replaced per
/// entry) on a warm context — the registry-driven benches' workhorse.
/// Solve failures are fatal.
std::vector<double> TimePerQuery(Solver& solver, SolverContext& context,
                                 const std::vector<NodeId>& sources,
                                 const PprQuery& base = {});

/// Bench-wide query count: the paper's 30 sources, scaled down via
/// PPR_BENCH_QUERIES if set.
size_t BenchQueryCount(size_t default_count = 5);

/// The paper's high-precision λ, min(1e-8, 1/m) — re-exported from
/// core/PaperLambda so registry-driven benches need no algorithm
/// headers. Matches the "powerpush" solver's unset-lambda default.
double HighPrecisionLambda(const Graph& graph);

}  // namespace ppr

#endif  // PPR_EVAL_EXPERIMENT_H_
