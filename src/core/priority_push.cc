#include "core/priority_push.h"

#include "util/d_heap.h"
#include "util/timer.h"

namespace ppr {

SolveStats PriorityForwardPush(const Graph& graph, NodeId source,
                               const ForwardPushOptions& options,
                               PprEstimate* out, ConvergenceTrace* trace) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(options.rmax > 0.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);

  const NodeId n = graph.num_nodes();
  const double alpha = options.alpha;
  Timer timer;
  if (trace != nullptr) trace->Start();

  out->EnsureStartState(n, source, options.assume_initialized);
  std::vector<double>& reserve = out->reserve;
  std::vector<double>& residue = out->residue;

  // Heap priority = unit-cost benefit r(s,v)/deff(v); a node is active
  // iff its benefit exceeds rmax (same active set as Algorithm 1).
  DHeap heap(n);
  auto benefit = [&](NodeId v) {
    return residue[v] / static_cast<double>(EffectiveDegree(graph, v));
  };
  heap.Update(source, benefit(source));

  SolveStats stats;
  double rsum = 1.0;
  // Same cancellation cadence as the FIFO loop: every 1024 pushes.
  constexpr uint64_t kCancelPollMask = 1023;
  while (!heap.empty() && heap.TopPriority() > options.rmax &&
         (options.stop_rsum <= 0.0 || rsum > options.stop_rsum)) {
    if (options.cancel != nullptr &&
        (stats.push_operations & kCancelPollMask) == 0 &&
        options.cancel->ShouldStop()) {
      break;
    }
    const NodeId v = heap.PopTop();
    const double r = residue[v];
    reserve[v] += alpha * r;
    rsum -= alpha * r;
    const double push = (1.0 - alpha) * r;
    const NodeId d = graph.OutDegree(v);
    residue[v] = 0.0;
    if (d == 0) {
      residue[source] += push;
      if (benefit(source) > options.rmax) {
        heap.Update(source, benefit(source));
      }
      stats.edge_pushes += 1;
    } else {
      const double inc = push / d;
      for (NodeId u : graph.OutNeighbors(v)) {
        residue[u] += inc;
        const double b = benefit(u);
        if (b > options.rmax) heap.Update(u, b);
      }
      stats.edge_pushes += d;
    }
    stats.push_operations++;
    if (trace != nullptr && trace->Due(stats.edge_pushes)) {
      trace->Record(stats.edge_pushes, rsum);
    }
  }

  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  if (trace != nullptr) trace->Record(stats.edge_pushes, rsum);
  return stats;
}

}  // namespace ppr
