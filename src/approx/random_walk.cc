#include "approx/random_walk.h"

#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace ppr {

WalkOutcome RandomWalk(const Graph& graph, NodeId origin, double alpha,
                       Rng& rng) {
  PPR_DCHECK(origin < graph.num_nodes());
  PPR_DCHECK(alpha > 0.0 && alpha < 1.0);
  NodeId current = origin;
  uint32_t steps = 0;
  // Draw the geometric stop time first, then advance that many moves —
  // one RNG call for the length instead of one Bernoulli per step.
  uint64_t moves = rng.NextGeometric(alpha);
  for (uint64_t i = 0; i < moves; ++i) {
    auto neighbors = graph.OutNeighbors(current);
    if (neighbors.empty()) {
      current = origin;  // dead end: conceptual edge back to the origin
    } else {
      current = neighbors[rng.NextBounded(neighbors.size())];
    }
    ++steps;
  }
  return {current, steps};
}

Status CheckWalkBudget(double budget) {
  // NaN fails the comparison.
  if (budget >= 0.0 && budget <= kMaxWalkCount) return Status::OK();
  std::ostringstream message;
  message << "the walk count these parameters need (" << budget
          << ") exceeds the limit of 2^53 walks; use a larger eps, mu or "
             "delta";
  return Status::InvalidArgument(message.str());
}

uint64_t WalkCount(double budget) {
  PPR_CHECK(CheckWalkBudget(budget).ok()) << "walk budget " << budget;
  return static_cast<uint64_t>(std::ceil(budget));
}

}  // namespace ppr
