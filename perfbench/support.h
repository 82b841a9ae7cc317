#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

// The testable parts of the repository benchmark (perfbench/main.cc):
// the metric catalogue, percentile and tail selection, the answer
// checks and the span tracer.
// Everything here calls the library only through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.h"
#include "graph/graph.h"
#include "serve/ppr_server.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

// ------------------------------------------------------------- metrics

/// One metric the benchmark reports. `end_to_end` metrics are printed by
/// untraced runs (--trace 0), the others by traced runs (--trace 1); the
/// same list is declared in BENCHMARK.json, and the tests keep the two
/// in step.
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

/// Every metric, end-to-end first, in BENCHMARK.json order.
const std::vector<MetricDef>& MetricCatalog();

/// The BENCHMARK.json name grammar: starts with a letter or digit, at
/// most 64 of [A-Za-z0-9_.-].
bool ValidMetricName(std::string_view name);

/// The BENCHMARK.json unit grammar: 1..16 of [A-Za-z0-9_/%.-].
bool ValidUnit(std::string_view unit);

// ---------------------------------------------------------- statistics

/// Linear-interpolated percentile (p in [0, 100]) of `samples`; 0 for an
/// empty sample.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// The highest percentile from a fixed ladder (99.9, 99, 95, 90, 80, 75,
/// 50) that is at most `cap` and leaves at least `min_beyond` samples
/// strictly above its value — the "highest percentile the sample
/// supports". `percentile` is 0 when not even the median qualifies.
struct TailPick {
  double percentile = 0.0;
  double value = 0.0;
  size_t beyond = 0;
};
TailPick PickTail(const std::vector<double>& samples, double cap,
                  size_t min_beyond = 10);

// -------------------------------------------------------- answer checks

/// Pass/fail counts per named answer check. Every failed check counts
/// into the run's `failed` total.
class CheckTally {
 public:
  /// Records one evaluation of check `name`; returns `ok`.
  bool Record(const std::string& name, bool ok);
  uint64_t checked() const { return checked_; }
  uint64_t failures() const { return failures_; }
  /// name -> {checked, failed}.
  const std::map<std::string, std::pair<uint64_t, uint64_t>>& by_name()
      const {
    return by_name_;
  }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_name_;
  uint64_t checked_ = 0;
  uint64_t failures_ = 0;
};

/// final_rsum <= l1_bound: the push certificate is within the bound the
/// solver advertises.
bool CertificateHolds(const ppr::PprResult& result);

/// |sum(scores) + final_rsum - 1| <= tolerance: reserve and residue
/// together still hold all the probability mass.
bool MassConserved(const ppr::PprResult& result, double tolerance = 1e-9);

/// top_nodes equals TopK(scores, k) recomputed by the caller.
bool TopNodesMatch(const ppr::PprResult& result, size_t k);

/// ||scores - reference||_1 <= bound.
bool L1Within(const std::vector<double>& scores,
              const std::vector<double>& reference, double bound);

/// Scores, top nodes and work counters equal bit for bit.
bool BitIdentical(const ppr::PprResult& a, const ppr::PprResult& b);

/// submitted == completed + failed + shed + cancelled.
bool CountersReconcile(const ppr::PprServerStats& stats);

/// Kernel seconds a result reports, or a negative value when the
/// solver did work but reported no kernel time (so the time must not
/// be read as post-processing).
double ReportedKernelSeconds(const ppr::SolveStats& stats);

// -------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run. Spans are recorded by
/// the benchmark around its calls into each module and written out only
/// at the end. Thread-safe; a disabled tracer records nothing.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int32_t kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (kNoParent when off).
  int32_t Add(const char* name, Clock::time_point start,
              Clock::time_point end, int32_t parent, uint64_t query)
      PPR_EXCLUDES(mu_);

  /// Opens a span whose end is set later with Close().
  int32_t Open(const char* name, int32_t parent, uint64_t query)
      PPR_EXCLUDES(mu_);
  void Close(int32_t id) PPR_EXCLUDES(mu_);

  size_t size() const PPR_EXCLUDES(mu_);

  /// Per span name: total self time (duration minus the part covered by
  /// its children) in seconds, and the number of spans.
  struct SelfTime {
    double seconds = 0.0;
    uint64_t spans = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const PPR_EXCLUDES(mu_);

  /// One JSON object per line: name, start/end in ns from the tracer's
  /// creation, id, parent and query id.
  std::string ToJsonLines() const PPR_EXCLUDES(mu_);

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t query;
  };
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable ppr::Mutex mu_;
  std::vector<Span> spans_ PPR_GUARDED_BY(mu_);
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int32_t parent = -1,
             uint64_t query = 0)
      : tracer_(tracer), id_(tracer.Open(name, parent, query)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const int32_t id_;
};

// --------------------------------------------------------------- stamps

const char* CompilerName();
const char* BuildType();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
