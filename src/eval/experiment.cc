#include "eval/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/power_push.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/timer.h"

namespace ppr {

std::vector<NamedGraph> LoadBenchDatasets(double scale, size_t max_count) {
  const double env_scale = BenchScaleFromEnv();
  std::vector<std::string> filter;
  if (const char* env = std::getenv("PPR_BENCH_DATASETS")) {
    for (std::string_view piece : SplitAndTrim(env, ", ")) {
      filter.emplace_back(piece);
    }
  }

  std::vector<NamedGraph> result;
  for (const DatasetSpec& spec : PaperDatasets()) {
    if (!filter.empty() &&
        std::find(filter.begin(), filter.end(), spec.name) == filter.end() &&
        std::find(filter.begin(), filter.end(), spec.paper_name) ==
            filter.end()) {
      continue;
    }
    if (max_count != 0 && result.size() >= max_count) break;
    PPR_LOG(Info) << "generating " << spec.name << " (stand-in for "
                  << spec.paper_name << ") at scale " << scale * env_scale;
    Timer timer;
    Graph graph = MakeDataset(spec, scale * env_scale);
    result.push_back({spec.name, spec.paper_name, std::move(graph),
                      timer.ElapsedSeconds()});
  }
  return result;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // Out-of-range (or NaN) percentiles clamp instead of crashing: p < 0
  // and NaN behave as p = 0 (the sample minimum), p > 100 as p = 100
  // (the maximum). Harness code computes p from user-facing knobs, and
  // a slightly-off request should degrade to the nearest defined
  // percentile, not take the process down mid-report.
  if (!(p >= 0.0)) {
    p = 0.0;
  } else if (p > 100.0) {
    p = 100.0;
  }
  // Nearest-rank on the sorted sample: index ⌈p/100·n⌉-1, clamped. The
  // convention is simple and never interpolates beyond observed values —
  // right for latency reporting, where p99 should be a real latency.
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank > 0) rank--;
  if (rank >= n) rank = n - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

std::vector<double> TimePerQuery(const std::vector<NodeId>& sources,
                                 const std::function<void(NodeId)>& fn) {
  std::vector<double> seconds;
  seconds.reserve(sources.size());
  for (NodeId s : sources) {
    Timer timer;
    fn(s);
    seconds.push_back(timer.ElapsedSeconds());
  }
  return seconds;
}

std::vector<double> TimePerQuery(Solver& solver, SolverContext& context,
                                 const std::vector<NodeId>& sources,
                                 const PprQuery& base) {
  std::vector<double> seconds;
  seconds.reserve(sources.size());
  PprResult result;
  for (NodeId s : sources) {
    PprQuery query = base;
    query.source = s;
    Timer timer;
    Status status = solver.Solve(query, context, &result);
    seconds.push_back(timer.ElapsedSeconds());
    PPR_CHECK(status.ok()) << status.ToString();
  }
  return seconds;
}

double HighPrecisionLambda(const Graph& graph) { return PaperLambda(graph); }

size_t BenchQueryCount(size_t default_count) {
  if (const char* env = std::getenv("PPR_BENCH_QUERIES")) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return default_count;
}

}  // namespace ppr
