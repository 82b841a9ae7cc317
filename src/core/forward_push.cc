#include "core/forward_push.h"

#include <algorithm>

#include "util/fifo_queue.h"
#include "util/timer.h"

namespace ppr {

namespace {

/// Shared FIFO push loop; pushes until the queue drains (or rsum falls
/// to stop_rsum). Untracked, it scans any (reserve, residue) state for
/// active nodes. kTrackSupport requires the canonical start state
/// (reserve ≡ 0, residue = e_source): it seeds the queue from the
/// source alone and appends each node to *support the first time its
/// reserve or residue becomes nonzero.
template <bool kTrackSupport>
SolveStats RunFifoLoop(const Graph& graph, NodeId source, double alpha,
                       double rmax, double stop_rsum, PprEstimate* estimate,
                       ConvergenceTrace* trace, FifoQueue* scratch,
                       const CancelToken* cancel,
                       std::vector<NodeId>* support) {
  // The timer covers queue set-up and seeding: both are kernel work.
  Timer timer;
  const NodeId n = graph.num_nodes();
  FifoQueue local_queue(scratch != nullptr ? 0 : n);
  FifoQueue& queue = scratch != nullptr ? *scratch : local_queue;
  if (scratch != nullptr) queue.Reconfigure(n);
  std::vector<double>& reserve = estimate->reserve;
  std::vector<double>& residue = estimate->residue;

  double rsum = 0.0;
  if constexpr (kTrackSupport) {
    PPR_DCHECK(residue[source] == 1.0 && reserve[source] == 0.0);
    // Identical to the scan below on this state: one nonzero residue.
    rsum = residue[source];
    if (rsum > static_cast<double>(EffectiveDegree(graph, source)) * rmax) {
      queue.PushIfAbsent(source);
    }
    support->clear();
    support->push_back(source);
  } else {
    for (NodeId v = 0; v < n; ++v) {
      const double r = residue[v];
      rsum += r;
      if (r > static_cast<double>(EffectiveDegree(graph, v)) * rmax) {
        queue.PushIfAbsent(v);
      }
    }
  }
  // A node leaves the support only if alpha * r underflows to zero on
  // its first push (rmax near the smallest denormal); it could then be
  // appended twice, so the list is deduplicated at the end.
  [[maybe_unused]] bool support_may_repeat = false;

  SolveStats stats;

  // Cancellation poll cadence: cheap enough to be invisible, frequent
  // enough that a deadline miss stays within ~1024 pushes of compute.
  constexpr uint64_t kCancelPollMask = 1023;

  while (!queue.empty() && (stop_rsum <= 0.0 || rsum > stop_rsum)) {
    if (cancel != nullptr && (stats.push_operations & kCancelPollMask) == 0 &&
        cancel->ShouldStop()) {
      break;
    }
    const NodeId v = queue.Pop();
    const double r = residue[v];
    if (r == 0.0) continue;
    reserve[v] += alpha * r;
    if constexpr (kTrackSupport) {
      if (reserve[v] == 0.0) support_may_repeat = true;
    }
    rsum -= alpha * r;
    const double push = (1.0 - alpha) * r;
    const NodeId d = graph.OutDegree(v);
    residue[v] = 0.0;
    if (d == 0) {
      // Dead end: the remaining mass jumps back to the source, which is
      // always in the support.
      residue[source] += push;
      if (residue[source] >
          static_cast<double>(EffectiveDegree(graph, source)) * rmax) {
        queue.PushIfAbsent(source);
      }
      stats.edge_pushes += 1;
    } else {
      const double inc = push / d;
      for (NodeId u : graph.OutNeighbors(v)) {
        const double before = residue[u];
        residue[u] = before + inc;
        if constexpr (kTrackSupport) {
          if (before == 0.0 && reserve[u] == 0.0 && inc != 0.0) {
            support->push_back(u);
          }
        }
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
  if constexpr (kTrackSupport) {
    if (support_may_repeat) {
      std::sort(support->begin(), support->end());
      support->erase(std::unique(support->begin(), support->end()),
                     support->end());
    }
  }

  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace

SolveStats FifoForwardPush(const Graph& graph, NodeId source,
                           const ForwardPushOptions& options, PprEstimate* out,
                           ConvergenceTrace* trace, FifoQueue* queue) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(options.rmax > 0.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);

  if (trace != nullptr) trace->Start();
  out->EnsureStartState(graph.num_nodes(), source, options.assume_initialized);
  SolveStats stats =
      options.support != nullptr
          ? RunFifoLoop<true>(graph, source, options.alpha, options.rmax,
                              options.stop_rsum, out, trace, queue,
                              options.cancel, options.support)
          : RunFifoLoop<false>(graph, source, options.alpha, options.rmax,
                               options.stop_rsum, out, trace, queue,
                               options.cancel, nullptr);
  if (trace != nullptr) trace->Record(stats.edge_pushes, stats.final_rsum);
  return stats;
}

SolveStats FifoForwardPushRefine(const Graph& graph, NodeId source,
                                 double alpha, double rmax,
                                 PprEstimate* estimate, FifoQueue* queue,
                                 const CancelToken* cancel) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(rmax > 0.0);
  PPR_CHECK(estimate->reserve.size() == graph.num_nodes());
  PPR_CHECK(estimate->residue.size() == graph.num_nodes());
  return RunFifoLoop<false>(graph, source, alpha, rmax, /*stop_rsum=*/0.0,
                            estimate, /*trace=*/nullptr, queue, cancel,
                            /*support=*/nullptr);
}

}  // namespace ppr
