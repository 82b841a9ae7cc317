#ifndef PPR_GRAPH_GRAPH_BUILDER_H_
#define PPR_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ppr {

/// Cleaning options applied by GraphBuilder::Build. The defaults mirror
/// the dataset preparation in §8 of the paper: undirected inputs are
/// symmetrized, parallel edges and self-loops are dropped, isolated nodes
/// are removed, and remaining nodes are relabeled to a dense [0, n).
struct BuildOptions {
  /// Add the reverse of every edge (treat the input as undirected).
  bool symmetrize = false;
  /// Drop (v, v) edges.
  bool remove_self_loops = true;
  /// Collapse parallel edges.
  bool deduplicate = true;
  /// Remove nodes with neither in- nor out-edges and relabel the rest,
  /// preserving relative id order.
  bool remove_isolated = true;
  /// Also materialize the transpose (in-adjacency).
  bool build_in_adjacency = false;
};

/// Accumulates edges and produces a cleaned CSR Graph.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-sizes the edge buffer.
  void Reserve(size_t num_edges) { edges_.reserve(num_edges); }

  /// Adds a directed edge. Node ids may be sparse; Build compacts them.
  void AddEdge(NodeId src, NodeId dst) { edges_.push_back({src, dst}); }

  size_t num_pending_edges() const { return edges_.size(); }

  /// Consumes the accumulated edges and builds the graph. The builder is
  /// left empty and reusable.
  Graph Build(const BuildOptions& options = {});

  /// Builds a graph directly from an edge vector, in O(m + sum of
  /// d_v log d_v) time by a counting sort on the source (see "Building
  /// graphs" in docs/api.md). The result depends only on the multiset
  /// of edges, not on their order. Ids must be below 2^32 - 1; a larger
  /// one aborts.
  static Graph FromEdges(std::vector<Edge> edges,
                         const BuildOptions& options = {});

 private:
  std::vector<Edge> edges_;
};

}  // namespace ppr

#endif  // PPR_GRAPH_GRAPH_BUILDER_H_
