#include "approx/bippr.h"

#include <algorithm>
#include <cmath>

#include "approx/random_walk.h"
#include "core/backward_push.h"
#include "util/timer.h"

namespace ppr {

namespace {

/// One α-walk from `source`, accumulating α·residue(v) at every visited
/// node v. Unbiasedness: E[#visits to v] = π(s,v)/α, so the per-walk
/// contribution has expectation Σ_v π(s,v)·residue(v) — exactly the
/// residual term of the BiPPR identity. Accumulating along the whole
/// walk (rather than only at the stop node) reuses each walk for every
/// prefix length, which lowers variance at no extra cost.
double WalkContribution(const Graph& graph, NodeId source, double alpha,
                        const std::vector<double>& residue, Rng& rng,
                        uint64_t* steps) {
  double contribution = 0.0;
  NodeId current = source;
  for (;;) {
    contribution += alpha * residue[current];
    if (rng.NextBernoulli(alpha)) break;
    auto neighbors = graph.OutNeighbors(current);
    PPR_DCHECK(!neighbors.empty());
    current = neighbors[rng.NextBounded(neighbors.size())];
    (*steps)++;
  }
  return contribution;
}

/// δ as BiPpr() resolves it: 0 selects 1/n.
double ResolvedDelta(const Graph& graph, const BiPprOptions& options) {
  return options.delta > 0.0 ? options.delta
                             : 1.0 / static_cast<double>(graph.num_nodes());
}

/// Backward-push rmax as BiPpr() resolves it: 0 selects the balanced
/// sqrt-tradeoff value.
double ResolvedRmax(const Graph& graph, const BiPprOptions& options) {
  if (options.rmax > 0.0) return options.rmax;
  const double n = static_cast<double>(graph.num_nodes());
  const double m = static_cast<double>(graph.num_edges());
  return options.epsilon *
         std::sqrt(ResolvedDelta(graph, options) * m / n / std::log(n));
}

}  // namespace

double BiPprWalkBudget(NodeId n, double rmax, double epsilon, double delta) {
  return 8.0 * rmax * std::log(2.0 * n) / (epsilon * epsilon * delta);
}

double BiPprWalkBudget(const Graph& graph, const BiPprOptions& options) {
  return BiPprWalkBudget(graph.num_nodes(), ResolvedRmax(graph, options),
                         options.epsilon, ResolvedDelta(graph, options));
}

BiPprResult BiPpr(const Graph& graph, NodeId source, NodeId target,
                  const BiPprOptions& options, Rng& rng) {
  PPR_CHECK(source < graph.num_nodes() && target < graph.num_nodes());
  Timer timer;

  // Backward phase.
  BackwardPushOptions backward;
  backward.alpha = options.alpha;
  backward.rmax = ResolvedRmax(graph, options);
  PprEstimate est;
  SolveStats backward_stats = BackwardPush(graph, target, backward, &est);

  // Forward phase: walks refine the residual expectation. Chernoff-style
  // count for relative error epsilon at magnitude delta, scaled by the
  // max residue (the per-sample range).
  const uint64_t walks =
      std::max<uint64_t>(WalkCount(BiPprWalkBudget(graph, options)), 16);

  // The identity needs E over the *alive-visit* distribution; each
  // walk's contribution sums alpha * residue(v) over visited nodes v.
  double total = 0.0;
  uint64_t steps = 0;
  for (uint64_t i = 0; i < walks; ++i) {
    total +=
        WalkContribution(graph, source, options.alpha, est.residue, rng,
                         &steps);
  }

  BiPprResult result;
  result.estimate = est.reserve[source] + total / static_cast<double>(walks);
  result.walks = walks;
  result.backward_pushes = backward_stats.push_operations;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ppr
