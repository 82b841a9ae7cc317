#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace ppr {

Graph GraphBuilder::Build(const BuildOptions& options) {
  std::vector<Edge> edges = std::move(edges_);
  edges_.clear();
  return FromEdges(std::move(edges), options);
}

// A counting sort by source: relabel, bucket targets into their rows,
// then sort (and dedupe) each row. O(m + sum_v d_v log d_v) time, and
// the only buffers besides the edge list and the CSR are sized by the
// id universe. Symmetrized edges are bucketed in both directions
// instead of being appended, so the edge list never doubles.
Graph GraphBuilder::FromEdges(std::vector<Edge> edges,
                              const BuildOptions& options) {
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }

  // Determine the id universe, in 64 bits: id 2^32 - 1 would wrap it.
  NodeId max_id = 0;
  for (const Edge& e : edges) {
    max_id = std::max({max_id, e.src, e.dst});
  }
  const uint64_t universe = edges.empty() ? 0 : uint64_t{max_id} + 1;
  PPR_CHECK(universe <= std::numeric_limits<NodeId>::max())
      << "node id " << max_id << " is out of range (ids must be < 2^32 - 1)";

  // 1. Relabel: keep only ids that occur on at least one edge. Dedup
  // never changes which ids occur, so this can run before it. The map
  // lives until the build returns: freed before the bucketing, it left
  // a heap hole that glibc kept resident, which raised the peak RSS of
  // later builds in the same process.
  std::vector<NodeId> relabel;
  NodeId n = static_cast<NodeId>(universe);
  if (options.remove_isolated) {
    std::vector<uint8_t> seen(universe, 0);
    for (const Edge& e : edges) {
      seen[e.src] = 1;
      seen[e.dst] = 1;
    }
    relabel.assign(universe, 0);
    n = 0;
    for (uint64_t v = 0; v < universe; ++v) {
      relabel[v] = n;
      n += seen[v];
    }
    for (Edge& e : edges) {
      e.src = relabel[e.src];
      e.dst = relabel[e.dst];
    }
  }

  // 2. Bucket each target into its row, with `offsets` as the cursors:
  // after the prefix sums offsets[v] is the end of row v, and each
  // placement moves it down, so it ends at the start of row v. Walking
  // the edges backwards keeps every row in input order.
  const bool both_ways = options.symmetrize;
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.src];
    if (both_ways) ++offsets[e.dst];
  }
  EdgeId total = 0;
  for (NodeId v = 0; v < n; ++v) offsets[v] = total += offsets[v];
  offsets[n] = total;
  std::vector<NodeId> targets(total);
  for (size_t i = edges.size(); i-- > 0;) {
    const Edge& e = edges[i];
    targets[--offsets[e.src]] = e.dst;
    if (both_ways) targets[--offsets[e.dst]] = e.src;
  }

  // 3. Sort each row; with dedup, drop repeats while compacting the
  // rows to the front in the same pass.
  EdgeId write = 0;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId begin = offsets[v];
    const EdgeId end = offsets[v + 1];
    std::sort(targets.begin() + begin, targets.begin() + end);
    if (!options.deduplicate) continue;
    offsets[v] = write;
    for (EdgeId i = begin; i < end; ++i) {
      if (write == offsets[v] || targets[i] != targets[write - 1]) {
        targets[write++] = targets[i];
      }
    }
  }
  if (options.deduplicate && write < total) {
    offsets[n] = write;
    targets.resize(write);
    std::vector<Edge>().swap(edges);  // before the copy, not on top of it
    targets.shrink_to_fit();
  }

  Graph graph(std::move(offsets), std::move(targets));
  if (options.build_in_adjacency) graph.BuildInAdjacency();
  return graph;
}

}  // namespace ppr
