#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "eval/metrics.h"
#include "util/logging.h"

namespace perfbench {

const std::vector<MetricDef>& MetricCatalog() {
  static const std::vector<MetricDef> kCatalog = {
      // End to end: what a caller of the library or the server sees.
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"latency_ms_p50", "ms", true},
      {"latency_ms_tail", "ms", true},
      {"throughput_qps", "1/s", true},
      // graph
      {"graph.generate_s", "s", false},
      {"graph.transpose_s", "s", false},
      {"graph.csr_mb", "MB", false},
      // api
      {"api.prepare_s", "s", false},
      {"api.index_mb", "MB", false},
      {"api.solve_ms_p50", "ms", false},
      {"api.post_ms_p50", "ms", false},
      {"api.post_share", "ratio", false},
      {"api.kernel_share", "ratio", false},
      {"api.context_full_assigns", "count", false},
      // core
      {"core.kernel_ms_p50", "ms", false},
      {"core.kernel_unreported", "count", false},
      {"core.edge_pushes", "count", false},
      {"core.push_operations", "count", false},
      {"core.iterations", "count", false},
      {"core.edge_pushes_per_us", "1/us", false},
      {"core.computed_bytes_per_query", "bytes", false},
      {"core.final_rsum_max", "l1", false},
      {"core.powerpush_speedup_tmax", "x", false},
      {"core.powitr_speedup_tmax", "x", false},
      // approx
      {"approx.random_walks", "count", false},
      {"approx.walk_steps", "count", false},
      {"approx.walk_steps_per_us", "1/us", false},
      {"approx.l1_err_over_bound_max", "ratio", false},
      // eval
      {"eval.topk_ms", "ms", false},
      // serve
      {"serve.submit_us_p50", "us", false},
      {"serve.nonkernel_ms_p50", "ms", false},
      {"serve.nonkernel_ms_tail", "ms", false},
      {"serve.generator_late_ms_max", "ms", false},
      {"serve.queue_depth_max", "count", false},
      {"serve.rejected", "count", false},
      {"serve.shed", "count", false},
      {"serve.failed", "count", false},
      {"serve.cancelled", "count", false},
      // the benchmark itself
      {"bench.fail_share", "ratio", false},
      {"bench.trace_overhead_share", "ratio", false},
      {"bench.trace_spans", "count", false},
  };
  return kCatalog;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * (samples.size() - 1);
  const size_t low = static_cast<size_t>(std::floor(rank));
  const size_t high = std::min(low + 1, samples.size() - 1);
  return samples[low] + (rank - low) * (samples[high] - samples[low]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

TailPick PickTail(const std::vector<double>& samples, double cap,
                  size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0,
                                       80.0, 75.0, 50.0};
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double p : kLadder) {
    if (p > cap) continue;
    const double value = Percentile(sorted, p);
    const size_t beyond = static_cast<size_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
    if (beyond >= min_beyond) return {p, value, beyond};
  }
  return {0.0, sorted.empty() ? 0.0 : sorted.back(), 0};
}

bool CheckTally::Record(const std::string& name, bool ok) {
  auto& entry = by_name_[name];
  ++entry.first;
  ++checked_;
  if (!ok) {
    ++entry.second;
    ++failures_;
  }
  return ok;
}

bool CertificateHolds(const ppr::PprResult& result) {
  return result.stats.final_rsum <= result.l1_bound;
}

bool MassConserved(const ppr::PprResult& result, double tolerance) {
  double sum = 0.0;
  for (double x : result.scores) sum += x;
  return std::abs(sum + result.stats.final_rsum - 1.0) <= tolerance;
}

bool TopNodesMatch(const ppr::PprResult& result, size_t k) {
  const std::vector<uint32_t> expected = ppr::TopK(result.scores, k);
  return std::equal(expected.begin(), expected.end(),
                    result.top_nodes.begin(), result.top_nodes.end());
}

bool L1Within(const std::vector<double>& scores,
              const std::vector<double>& reference, double bound) {
  return scores.size() == reference.size() &&
         ppr::L1Distance(scores, reference) <= bound;
}

bool BitIdentical(const ppr::PprResult& a, const ppr::PprResult& b) {
  return a.scores == b.scores && a.top_nodes == b.top_nodes &&
         a.stats.push_operations == b.stats.push_operations &&
         a.stats.edge_pushes == b.stats.edge_pushes &&
         a.stats.random_walks == b.stats.random_walks &&
         a.stats.walk_steps == b.stats.walk_steps &&
         a.stats.final_rsum == b.stats.final_rsum;
}

bool CountersReconcile(const ppr::PprServerStats& stats) {
  return stats.submitted ==
         stats.completed + stats.failed + stats.shed + stats.cancelled;
}

double ReportedKernelSeconds(const ppr::SolveStats& stats) {
  const bool worked = stats.push_operations > 0 || stats.iterations > 0 ||
                      stats.random_walks > 0;
  if (stats.seconds <= 0.0 && worked) return -1.0;
  return stats.seconds;
}

int32_t Tracer::Add(const char* name, Clock::time_point start,
                    Clock::time_point end, int32_t parent, uint64_t query) {
  if (!enabled_) return kNoParent;
  ppr::MutexLock lock(mu_);
  spans_.push_back({name, Ns(start), Ns(end), parent, query});
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t Tracer::Open(const char* name, int32_t parent, uint64_t query) {
  if (!enabled_) return kNoParent;
  const int64_t now = Ns(Clock::now());
  ppr::MutexLock lock(mu_);
  spans_.push_back({name, now, now, parent, query});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Close(int32_t id) {
  if (!enabled_ || id < 0) return;
  const int64_t now = Ns(Clock::now());
  ppr::MutexLock lock(mu_);
  spans_[id].end_ns = now;
}

size_t Tracer::size() const {
  ppr::MutexLock lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  ppr::MutexLock lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Length of the union of the children's intervals, clipped to the
    // parent, so overlapping children are not subtracted twice.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    SelfTime& entry = out[span.name];
    entry.seconds += (span.end_ns - span.start_ns - covered) * 1e-9;
    ++entry.spans;
  }
  return out;
}

std::string Tracer::ToJsonLines() const {
  ppr::MutexLock lock(mu_);
  std::string out;
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                  "\"end_ns\": %lld, \"parent\": %d, \"query\": %llu}\n",
                  i, s.name, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent,
                  static_cast<unsigned long long>(s.query));
    out += line;
  }
  return out;
}

const char* CompilerName() { return PERFBENCH_COMPILER; }
const char* BuildType() { return PERFBENCH_BUILD_TYPE; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
