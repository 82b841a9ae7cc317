#ifndef PPR_CORE_POWER_ITERATION_H_
#define PPR_CORE_POWER_ITERATION_H_

#include "core/trace.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"

namespace ppr {

/// Options for the vanilla global approach (§3.1 of the paper).
struct PowerIterationOptions {
  /// Teleport probability of the α-random walk.
  double alpha = 0.2;
  /// ℓ1-error threshold λ; iterate until ‖π̂ − π‖₁ = ‖γ‖₁ ≤ λ.
  double lambda = 1e-8;
  /// Safety cap; (1−α)^j ≤ λ needs ~log(1/λ)/α iterations, far below this.
  uint64_t max_iterations = 100000;
  /// When true, `out` must already hold the canonical start state at
  /// size n and the O(n) Reset() is skipped (see PowerPushOptions).
  bool assume_initialized = false;
  /// Optional cooperative cancellation, polled at every SpMV iteration
  /// boundary; nullptr (the default) never polls.
  const CancelToken* cancel = nullptr;
};

/// Power Iteration: maintains the alive-walk distribution γ_j and the
/// partial PPR sum π̂ = Σ_{k≤j} α γ_k. Each iteration multiplies γ by
/// (1−α)P via a full pass over the graph, so the ℓ1 error decays as
/// (1−α)^j exactly (Equation (6)) and total time is O(m log(1/λ)).
///
/// Dead ends are handled by redirecting their outgoing mass to the source
/// (the paper's conceptual dead-end→source edge).
///
/// On return, out->reserve is π̂ and out->residue is the final γ.
SolveStats PowerIteration(const Graph& graph, NodeId source,
                          const PowerIterationOptions& options,
                          PprEstimate* out,
                          ConvergenceTrace* trace = nullptr);

}  // namespace ppr

#endif  // PPR_CORE_POWER_ITERATION_H_
