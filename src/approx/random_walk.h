#ifndef PPR_APPROX_RANDOM_WALK_H_
#define PPR_APPROX_RANDOM_WALK_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace ppr {

/// The α-random-walk engine shared by every Monte-Carlo-phase algorithm.
///
/// Semantics follow §2 of the paper: at each step the walk stops at the
/// current node with probability α, otherwise moves to a uniformly random
/// out-neighbor. A dead end conceptually has an edge back to the walk's
/// *origin* — for index-based algorithms the walks are pre-generated
/// before the query source is known, so the origin (not the query source)
/// is the only consistent redirect target; for walks started at the query
/// source the two coincide.
struct WalkOutcome {
  NodeId stop;       ///< the node the walk stopped at
  uint32_t steps;    ///< number of moves made (0 = stopped at the origin)
};

/// Performs one α-random walk from `origin` and returns where it stopped.
WalkOutcome RandomWalk(const Graph& graph, NodeId origin, double alpha,
                       Rng& rng);

/// Expected walk length is (1−α)/α; used by cost accounting and tests.
inline double ExpectedWalkSteps(double alpha) {
  return (1.0 - alpha) / alpha;
}

/// Largest walk count any walk-based algorithm runs: 2^53, up to which
/// every integer is an exact double. Walk budgets are computed in
/// double, and a tiny but valid ε, μ or δ can push one past anything
/// runnable, or past uint64_t, where the cast would be undefined.
inline constexpr double kMaxWalkCount = 9007199254740992.0;  // 2^53

/// InvalidArgument unless `budget` (a real-valued walk count) is in
/// [0, kMaxWalkCount]. Solvers check budgets derived from user input
/// with it before WalkCount.
Status CheckWalkBudget(double budget);

/// ceil(budget) as a count. The budget must pass CheckWalkBudget.
uint64_t WalkCount(double budget);

}  // namespace ppr

#endif  // PPR_APPROX_RANDOM_WALK_H_
