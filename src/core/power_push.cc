#include "core/power_push.h"

#include <algorithm>
#include <cmath>

#include "util/fifo_queue.h"
#include "util/timer.h"

namespace ppr {

double PaperLambda(const Graph& graph) {
  return std::min(1e-8, 1.0 / static_cast<double>(graph.num_edges()));
}

SolveStats PowerPush(const Graph& graph, NodeId source,
                     const PowerPushOptions& options, PprEstimate* out,
                     ConvergenceTrace* trace, FifoQueue* scratch) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(options.lambda > 0.0 && options.lambda < 1.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  PPR_CHECK(options.epoch_num >= 1);

  const NodeId n = graph.num_nodes();
  const double alpha = options.alpha;
  const double lambda = options.lambda;
  const double rmax = lambda / static_cast<double>(graph.num_edges());
  // The queue never holds more than n nodes, so any fraction >= 1 means
  // queue-only; capping at n + 1 keeps huge fractions from overflowing
  // the cast.
  const size_t scan_threshold = static_cast<size_t>(std::clamp(
      options.scan_threshold_fraction * n, 1.0, static_cast<double>(n) + 1));

  Timer timer;
  if (trace != nullptr) trace->Start();
  out->EnsureStartState(n, source, options.assume_initialized);
  std::vector<double>& reserve = out->reserve;
  std::vector<double>& residue = out->residue;

  SolveStats stats;
  double rsum = 1.0;

  const auto stopped = [&options] {
    return options.cancel != nullptr && options.cancel->ShouldStop();
  };
  constexpr uint64_t kCancelPollMask = 1023;

  // ---- Phase 1: local FIFO pushes while the frontier is sparse. ----
  if (options.use_queue_phase) {
    FifoQueue local_queue(scratch != nullptr ? 0 : n);
    FifoQueue& queue = scratch != nullptr ? *scratch : local_queue;
    if (scratch != nullptr) queue.Reconfigure(n);
    queue.PushIfAbsent(source);
    while (!queue.empty() && queue.size() <= scan_threshold &&
           rsum > lambda) {
      if (options.cancel != nullptr &&
          (stats.push_operations & kCancelPollMask) == 0 && stopped()) {
        break;
      }
      const NodeId v = queue.Pop();
      const double r = residue[v];
      if (r == 0.0) continue;
      reserve[v] += alpha * r;
      rsum -= alpha * r;
      const double push = (1.0 - alpha) * r;
      const NodeId d = graph.OutDegree(v);
      residue[v] = 0.0;
      if (d == 0) {
        residue[source] += push;
        if (residue[source] >
            static_cast<double>(EffectiveDegree(graph, source)) * rmax) {
          queue.PushIfAbsent(source);
        }
        stats.edge_pushes += 1;
      } else {
        const double inc = push / d;
        for (NodeId u : graph.OutNeighbors(v)) {
          residue[u] += inc;
          if (residue[u] >
              static_cast<double>(EffectiveDegree(graph, u)) * rmax) {
            queue.PushIfAbsent(u);
          }
        }
        stats.edge_pushes += d;
      }
      stats.push_operations++;
      if (trace != nullptr && trace->Due(stats.edge_pushes)) {
        trace->Record(stats.edge_pushes, rsum);
      }
    }
  }

  // ---- Phase 2: global scans with a dynamic threshold. ----
  if (rsum > lambda && !stopped()) {
    const int epochs = options.use_epochs ? options.epoch_num : 1;
    const auto& offsets = graph.out_offsets();
    const auto& targets = graph.out_targets();
    for (int i = 1; i <= epochs; ++i) {
      // ℓ1 target for this epoch: λ^(i/epochNum); the matching push
      // threshold is r'max = target / m.
      const double epoch_target =
          options.use_epochs
              ? std::pow(lambda, static_cast<double>(i) / epochs)
              : lambda;
      const double epoch_rmax =
          epoch_target / static_cast<double>(graph.num_edges());
      while (rsum > epoch_target) {
        if (stopped()) break;
        // One asynchronous pass over the concatenated adjacency array:
        // pushes later in the pass see residue deposited earlier in the
        // same pass.
        const uint64_t pushes_before = stats.push_operations;
        for (NodeId v = 0; v < n; ++v) {
          const double r = residue[v];
          const NodeId d =
              static_cast<NodeId>(offsets[v + 1] - offsets[v]);
          const NodeId deff = d == 0 ? 1 : d;
          if (r <= static_cast<double>(deff) * epoch_rmax) continue;
          reserve[v] += alpha * r;
          rsum -= alpha * r;
          const double push = (1.0 - alpha) * r;
          residue[v] = 0.0;
          if (d == 0) {
            residue[source] += push;
            stats.edge_pushes += 1;
          } else {
            const double inc = push / d;
            for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
              residue[targets[e]] += inc;
            }
            stats.edge_pushes += d;
          }
          stats.push_operations++;
          if (trace != nullptr && trace->Due(stats.edge_pushes)) {
            trace->Record(stats.edge_pushes, rsum);
          }
        }
        stats.iterations++;
        // Incremental rsum drifts by one ulp per push; refresh it with an
        // exact O(n) sum once per pass so epoch exits are trustworthy.
        rsum = out->ResidueSum();
        // With dead ends, sub-threshold residues can sum slightly above
        // the epoch target while no node is active; a pass that performed
        // no pushes cannot make progress, so move to the next epoch.
        if (stats.push_operations == pushes_before) break;
      }
      if (stopped()) break;
    }
  }

  if (trace != nullptr) trace->Record(stats.edge_pushes, rsum);
  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace ppr
