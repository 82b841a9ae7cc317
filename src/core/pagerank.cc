#include "core/pagerank.h"

#include <algorithm>

#include "util/timer.h"

namespace ppr {

std::vector<double> PageRank(const Graph& graph,
                             const PageRankOptions& options,
                             SolveStats* stats_out) {
  const NodeId n = graph.num_nodes();
  PPR_CHECK(n > 0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  PPR_CHECK(options.lambda > 0.0);
  const double alpha = options.alpha;
  Timer timer;

  std::vector<double> rank(n, 0.0);
  std::vector<double> gamma(n, 1.0 / n);  // alive mass, starts uniform

  SolveStats stats;
  double rsum = 1.0;

  std::vector<double> next(n, 0.0);
  while (rsum > options.lambda &&
         stats.iterations < options.max_iterations) {
    if (options.cancel != nullptr && options.cancel->ShouldStop()) break;
    double dangling = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      const double g = gamma[v];
      if (g == 0.0) continue;
      rank[v] += alpha * g;
      const double push = (1.0 - alpha) * g;
      const NodeId d = graph.OutDegree(v);
      if (d == 0) {
        dangling += push;
        stats.edge_pushes += 1;
      } else {
        const double inc = push / d;
        for (NodeId u : graph.OutNeighbors(v)) next[u] += inc;
        stats.edge_pushes += d;
      }
      stats.push_operations++;
    }
    if (dangling > 0.0) {
      const double share = dangling / n;
      for (NodeId v = 0; v < n; ++v) next[v] += share;
    }
    gamma.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
    rsum *= (1.0 - alpha);
    stats.iterations++;
  }
  // Fold the remaining alive mass in as if it stopped where it stands —
  // bounds the final error by lambda while keeping the sum exactly 1.
  for (NodeId v = 0; v < n; ++v) rank[v] += gamma[v];

  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  if (stats_out != nullptr) *stats_out = stats;
  return rank;
}

}  // namespace ppr
