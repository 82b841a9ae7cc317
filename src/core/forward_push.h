#ifndef PPR_CORE_FORWARD_PUSH_H_
#define PPR_CORE_FORWARD_PUSH_H_

#include <vector>

#include "core/trace.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/fifo_queue.h"

namespace ppr {

/// Options for FIFO-FwdPush (Algorithm 2 of the paper).
struct ForwardPushOptions {
  double alpha = 0.2;
  /// Residue threshold: v is active iff r(s,v) > d_v * rmax. With
  /// rmax = λ/m, termination guarantees ‖π̂ − π‖₁ ≤ λ (Equation (7)),
  /// and Theorem 4.3 bounds the running time by O(m log(1/λ)).
  double rmax = 1e-8;
  /// Optional early stop: additionally stop once rsum ≤ stop_rsum
  /// (0 disables; the classic algorithm runs until no node is active).
  double stop_rsum = 0.0;
  /// When true, `out` must already hold a valid (reserve, residue) state
  /// of size n — typically the canonical start state produced by a
  /// SolverContext sparse reset — and the O(n) Reset() is skipped. Used
  /// by the api/ adapters to make repeated queries allocation- and
  /// assign-free.
  bool assume_initialized = false;
  /// Optional cooperative cancellation, polled every ~1024 push
  /// operations; the loop exits early with a partial estimate. nullptr
  /// (the default) takes the unpolled path — bit-identical behavior.
  const CancelToken* cancel = nullptr;
  /// Optional support tracking, which makes the solve output-sensitive.
  /// When non-null, the start state must be the canonical one (reserve
  /// ≡ 0, residue = e_source), as Reset() and a SolverContext sparse
  /// reset leave it. The loop then seeds its queue from the source alone
  /// instead of scanning all n residues, and replaces *support with the
  /// nodes whose reserve or residue it made nonzero, each listed once.
  /// Every node outside the list holds reserve = residue = 0 on return,
  /// also after a cancelled solve.
  std::vector<NodeId>* support = nullptr;
};

/// First-In-First-Out Forward Push — the "common implementation" whose
/// O(m log(1/λ)) bound is the paper's headline theoretical result. Active
/// nodes are organized in a FIFO ring with O(1) membership tests; a push
/// converts α of a node's residue into reserve and spreads the rest over
/// its out-neighbors. Dead-end mass is redirected to the source.
/// `queue` optionally supplies a reusable scratch FIFO (it is
/// Reconfigure()d to the graph's node count); nullptr allocates one
/// per call.
SolveStats FifoForwardPush(const Graph& graph, NodeId source,
                           const ForwardPushOptions& options, PprEstimate* out,
                           ConvergenceTrace* trace = nullptr,
                           FifoQueue* queue = nullptr);

/// Continues pushing from an existing (reserve, residue) state until no
/// node is active w.r.t. rmax. This is the O(m) post-refinement step that
/// SpeedPPR (Algorithm 4, line 3) applies after PowerPush: by Lemma 4.5,
/// starting from rsum ≤ m*rmax it costs only O(m).
SolveStats FifoForwardPushRefine(const Graph& graph, NodeId source,
                                 double alpha, double rmax,
                                 PprEstimate* estimate,
                                 FifoQueue* queue = nullptr,
                                 const CancelToken* cancel = nullptr);

}  // namespace ppr

#endif  // PPR_CORE_FORWARD_PUSH_H_
