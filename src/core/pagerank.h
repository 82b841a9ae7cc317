#ifndef PPR_CORE_PAGERANK_H_
#define PPR_CORE_PAGERANK_H_

#include <vector>

#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"

namespace ppr {

/// Options for global PageRank.
struct PageRankOptions {
  /// Teleport probability (PageRank convention: damping = 1 − alpha).
  double alpha = 0.2;
  /// ℓ1 convergence threshold on the alive mass.
  double lambda = 1e-10;
  uint64_t max_iterations = 10000;
  /// Optional cooperative cancellation, polled once per iteration;
  /// nullptr (the default) never polls.
  const CancelToken* cancel = nullptr;
};

/// Global PageRank — the uniform-teleport special case of PPR
/// (π_PR = (1/n)·Σ_s π_s), listed by the paper's introduction as the
/// first traditional application of SSPPR. Implemented as power
/// iteration with the uniform start vector; dead-end mass is
/// redistributed uniformly (the standard dangling-node convention — the
/// per-source "jump back to s" rule averages to uniform over all
/// sources).
///
/// Returns the PageRank vector (sums to 1). A stop through
/// options.cancel ends the iteration early; the vector then still sums
/// to 1 but carries more than lambda error.
std::vector<double> PageRank(const Graph& graph,
                             const PageRankOptions& options = {},
                             SolveStats* stats = nullptr);

}  // namespace ppr

#endif  // PPR_CORE_PAGERANK_H_
