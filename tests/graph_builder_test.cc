#include "graph/graph_builder.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/rng.h"

namespace ppr {
namespace {

/// The sort-based construction GraphBuilder::FromEdges used before its
/// counting sort: sort the whole edge list, unique it, relabel. Kept as
/// the reference the counting sort must match byte for byte.
Graph ReferenceFromEdges(std::vector<Edge> edges,
                         const BuildOptions& options) {
  if (options.symmetrize) {
    const size_t original = edges.size();
    for (size_t i = 0; i < original; ++i) {
      edges.push_back({edges[i].dst, edges[i].src});
    }
  }
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  std::sort(edges.begin(), edges.end());
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  NodeId max_id = 0;
  for (const Edge& e : edges) max_id = std::max({max_id, e.src, e.dst});
  NodeId n = edges.empty() ? 0 : max_id + 1;
  if (options.remove_isolated) {
    std::vector<uint8_t> seen(n, 0);
    for (const Edge& e : edges) seen[e.src] = seen[e.dst] = 1;
    std::vector<NodeId> relabel(n, 0);
    NodeId next = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (seen[v]) relabel[v] = next++;
    }
    n = next;
    for (Edge& e : edges) e = {relabel[e.src], relabel[e.dst]};
  }
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) offsets[e.src + 1]++;
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<NodeId> targets;
  for (const Edge& e : edges) targets.push_back(e.dst);
  Graph graph(std::move(offsets), std::move(targets));
  if (options.build_in_adjacency) graph.BuildInAdjacency();
  return graph;
}

std::string Describe(const BuildOptions& o) {
  return "symmetrize=" + std::to_string(o.symmetrize) +
         " remove_self_loops=" + std::to_string(o.remove_self_loops) +
         " deduplicate=" + std::to_string(o.deduplicate) +
         " remove_isolated=" + std::to_string(o.remove_isolated) +
         " build_in_adjacency=" + std::to_string(o.build_in_adjacency);
}

/// Builds `edges` under every option combination with FromEdges and the
/// reference, and requires identical CSR arrays (both directions).
void ExpectMatchesReference(const std::vector<Edge>& edges,
                            const std::string& label) {
  for (const BuildOptions& options : testing::AllBuildOptions()) {
    const Graph got = GraphBuilder::FromEdges(edges, options);
    const Graph want = ReferenceFromEdges(edges, options);
    ASSERT_EQ(got.out_offsets(), want.out_offsets())
        << label << " " << Describe(options);
    ASSERT_EQ(got.out_targets(), want.out_targets())
        << label << " " << Describe(options);
    ASSERT_EQ(got.has_in_adjacency(), want.has_in_adjacency());
    if (!got.has_in_adjacency()) continue;
    for (NodeId v = 0; v < got.num_nodes(); ++v) {
      ASSERT_TRUE(std::ranges::equal(got.InNeighbors(v), want.InNeighbors(v)))
          << label << " " << Describe(options) << " node " << v;
    }
  }
}

TEST(GraphBuilderTest, MatchesSortReferenceOnRandomEdgeLists) {
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    // Small id ranges force self-loops, duplicates and mutual edges;
    // large ones leave gaps for the relabeling to close.
    const uint64_t ids = trial % 3 == 0 ? 1 + rng.NextBounded(6)
                         : trial % 3 == 1 ? 1 + rng.NextBounded(200)
                                          : 1 + rng.NextBounded(1u << 16);
    std::vector<Edge> edges(rng.NextBounded(400));
    for (Edge& e : edges) {
      e = {static_cast<NodeId>(rng.NextBounded(ids)),
           static_cast<NodeId>(rng.NextBounded(ids))};
    }
    ExpectMatchesReference(edges, "trial " + std::to_string(trial));
  }
}

TEST(GraphBuilderTest, MatchesSortReferenceOnEdgeCases) {
  ExpectMatchesReference({}, "empty");
  ExpectMatchesReference({{3, 3}}, "lone self-loop");
  ExpectMatchesReference({{0, 0}, {0, 0}, {5, 5}}, "only self-loops");
  ExpectMatchesReference({{7, 2}}, "one edge");

  std::vector<Edge> repeated;
  for (int copy = 0; copy < 50; ++copy) {
    for (NodeId v = 0; v < 20; ++v) repeated.push_back({v, (v * 7 + 3) % 20});
  }
  ExpectMatchesReference(repeated, "all-duplicate rows");

  // Already sorted input, and the same input reversed.
  std::vector<Edge> sorted;
  for (NodeId u = 0; u < 30; ++u) {
    for (NodeId v = 0; v < 30; v += 1 + u % 4) sorted.push_back({u, v});
  }
  ExpectMatchesReference(sorted, "sorted");
  std::reverse(sorted.begin(), sorted.end());
  ExpectMatchesReference(sorted, "reverse sorted");
}

TEST(GraphBuilderTest, MatchesSortReferenceOnAHugeRow) {
  // One row of 10^5 entries (with repeats) amid short rows.
  Rng rng(21);
  std::vector<Edge> edges;
  for (int i = 0; i < 100000; ++i) {
    edges.push_back({40, static_cast<NodeId>(rng.NextBounded(60000))});
  }
  for (NodeId v = 0; v < 300; ++v) edges.push_back({v, (v * 31) % 300});
  std::shuffle(edges.begin(), edges.end(), rng);
  for (const BuildOptions& options : testing::AllBuildOptions()) {
    if (options.build_in_adjacency) continue;  // covered elsewhere
    const Graph got = GraphBuilder::FromEdges(edges, options);
    const Graph want = ReferenceFromEdges(edges, options);
    ASSERT_EQ(got.out_offsets(), want.out_offsets()) << Describe(options);
    ASSERT_EQ(got.out_targets(), want.out_targets()) << Describe(options);
  }
}

TEST(GraphBuilderDeathTest, RejectsTheLargestId) {
  // max id + 1 must fit a NodeId; 2^32 - 1 would wrap the universe to 0.
  const NodeId largest = std::numeric_limits<NodeId>::max();
  EXPECT_DEATH(GraphBuilder::FromEdges({{0, largest}}), "out of range");
  EXPECT_DEATH(GraphBuilder::FromEdges({{largest, 1}}), "out of range");
}

TEST(GraphBuilderTest, BuildsSimpleGraph) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilderTest, RemovesSelfLoopsByDefault) {
  GraphBuilder b;
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, KeepsSelfLoopsWhenAsked) {
  GraphBuilder b;
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  BuildOptions options;
  options.remove_self_loops = false;
  Graph g = b.Build(options);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 1u);
}

TEST(GraphBuilderTest, SymmetrizeAddsReverseEdges) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  BuildOptions options;
  options.symmetrize = true;
  Graph g = b.Build(options);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 1));
}

TEST(GraphBuilderTest, SymmetrizeDeduplicatesMutualEdges) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // already mutual: symmetrizing must not double it
  BuildOptions options;
  options.symmetrize = true;
  Graph g = b.Build(options);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, RemovesIsolatedNodesAndRelabelsDensely) {
  GraphBuilder b;
  // Node ids 10, 20, 30 with gaps; 25 is never referenced.
  b.AddEdge(10, 20);
  b.AddEdge(20, 30);
  b.AddEdge(30, 10);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  // Relative order preserved: 10 -> 0, 20 -> 1, 30 -> 2.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(GraphBuilderTest, KeepIsolatedPreservesUniverse) {
  GraphBuilder b;
  b.AddEdge(0, 5);
  BuildOptions options;
  options.remove_isolated = false;
  Graph g = b.Build(options);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.CountDeadEnds(), 5u);
}

TEST(GraphBuilderTest, AdjacencyListsAreSorted) {
  GraphBuilder b;
  b.AddEdge(0, 3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  Graph g = b.Build();
  auto nbrs = g.OutNeighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphBuilderTest, BuilderIsReusableAfterBuild) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g1 = b.Build();
  EXPECT_EQ(b.num_pending_edges(), 0u);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g2 = b.Build();
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g2.num_edges(), 2u);
}

TEST(GraphBuilderTest, BuildInAdjacencyOption) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  BuildOptions options;
  options.build_in_adjacency = true;
  Graph g = b.Build(options);
  EXPECT_TRUE(g.has_in_adjacency());
  EXPECT_EQ(g.InDegree(1), 1u);
}

TEST(GraphBuilderTest, FromEdgesStaticHelper) {
  Graph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilderTest, EmptyBuildProducesEmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

}  // namespace
}  // namespace ppr
