#include "core/power_iteration.h"

#include <algorithm>
#include <vector>

#include "util/timer.h"

namespace ppr {

SolveStats PowerIteration(const Graph& graph, NodeId source,
                          const PowerIterationOptions& options,
                          PprEstimate* out, ConvergenceTrace* trace) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(options.lambda > 0.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);

  const NodeId n = graph.num_nodes();
  const double alpha = options.alpha;
  Timer timer;
  if (trace != nullptr) trace->Start();

  out->EnsureStartState(n, source, options.assume_initialized);
  std::vector<double>& gamma = out->residue;  // γ_j, the alive-walk mass

  SolveStats stats;
  double rsum = 1.0;

  std::vector<double> next(n, 0.0);  // γ_{j+1}
  while (rsum > options.lambda &&
         stats.iterations < options.max_iterations) {
    if (options.cancel != nullptr && options.cancel->ShouldStop()) break;
    // One simultaneous step: π̂ += α γ;  γ' = (1−α) γ P.
    double next_rsum = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      const double r = gamma[v];
      if (r == 0.0) continue;
      out->reserve[v] += alpha * r;
      const double push = (1.0 - alpha) * r;
      const NodeId d = graph.OutDegree(v);
      if (d == 0) {
        next[source] += push;  // dead end: walk jumps back to the source
        stats.edge_pushes += 1;
      } else {
        const double inc = push / d;
        for (NodeId u : graph.OutNeighbors(v)) next[u] += inc;
        stats.edge_pushes += d;
      }
      next_rsum += push;
      stats.push_operations++;
    }
    gamma.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
    rsum = next_rsum;
    stats.iterations++;
    if (trace != nullptr && trace->Due(stats.edge_pushes)) {
      trace->Record(stats.edge_pushes, rsum);
    }
  }

  if (trace != nullptr) trace->Record(stats.edge_pushes, rsum);
  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace ppr
