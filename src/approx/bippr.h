#ifndef PPR_APPROX_BIPPR_H_
#define PPR_APPROX_BIPPR_H_

#include "core/workspace.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ppr {

/// Options for the bidirectional single-pair estimator.
struct BiPprOptions {
  double alpha = 0.2;
  /// Target relative accuracy for pairs with π(s,t) ≥ delta.
  double epsilon = 0.5;
  /// PPR magnitude threshold; 0 selects 1/n.
  double delta = 0.0;
  /// Backward-push residue threshold; 0 selects the balanced
  /// sqrt-tradeoff value epsilon * sqrt(delta · m / n / log n).
  double rmax = 0.0;
};

/// Result of a single-pair query.
struct BiPprResult {
  double estimate = 0.0;
  uint64_t walks = 0;
  uint64_t backward_pushes = 0;
  double seconds = 0.0;
};

/// BiPPR (Lofgren et al., WSDM'16) — the bidirectional single-pair
/// baseline from the paper's related work (§7). Estimates π(s, t) by
/// combining a Backward Push from t (giving reserve/residue vectors)
/// with forward random walks from s:
///
///     π(s, t) = reserve[s] + E_{v ~ walk from s}[ residue[v] ]
///
/// which is an unbiased identity; the walks estimate the expectation.
/// Requires in-adjacency and a dead-end-free graph (see BackwardPush).
BiPprResult BiPpr(const Graph& graph, NodeId source, NodeId target,
                  const BiPprOptions& options, Rng& rng);

/// Forward-phase walk budget of the bidirectional estimators before
/// rounding: 8·rmax·log(2n)/(ε²·δ), Chernoff-style for relative error ε
/// at magnitude δ with per-sample range rmax. Solvers pass it to
/// CheckWalkBudget (approx/random_walk.h) before a query runs.
double BiPprWalkBudget(NodeId n, double rmax, double epsilon, double delta);

/// The budget BiPpr() spends per pair under `options`, with δ and rmax
/// resolved the way BiPpr() resolves them.
double BiPprWalkBudget(const Graph& graph, const BiPprOptions& options);

}  // namespace ppr

#endif  // PPR_APPROX_BIPPR_H_
