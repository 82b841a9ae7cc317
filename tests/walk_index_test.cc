#include "approx/walk_index.h"

#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "approx/monte_carlo.h"
#include "test_util.h"

namespace ppr {
namespace {

TEST(WalkIndexTest, SpeedPprSizingIsDegreePerNode) {
  Graph g = PaperExampleGraph();
  Rng rng(1);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(index.Endpoints(v).size(), g.OutDegree(v)) << "v=" << v;
  }
  EXPECT_EQ(index.total_walks(), g.num_edges());
}

TEST(WalkIndexTest, SpeedPprSizingGivesDeadEndsOneWalk) {
  Graph g = PathGraph(4);
  Rng rng(2);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  EXPECT_EQ(index.Endpoints(3).size(), 1u);
  EXPECT_LE(index.total_walks(), g.num_edges() + g.CountDeadEnds());
}

TEST(WalkIndexTest, ForaPlusSizingFollowsFormula) {
  Graph g = PaperExampleGraph();
  Rng rng(3);
  const uint64_t w = 10000;
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kForaPlus, w, rng);
  const double ratio = std::sqrt(static_cast<double>(w) /
                                 static_cast<double>(g.num_edges()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint64_t expected =
        static_cast<uint64_t>(std::ceil(g.OutDegree(v) * ratio)) + 1;
    EXPECT_EQ(index.Endpoints(v).size(), expected) << "v=" << v;
  }
}

TEST(WalkIndexTest, ForaPlusIndexGrowsWithW_SpeedPprDoesNot) {
  // The ε-independence headline of the paper: SpeedPPR's index size does
  // not change with W while FORA+'s does.
  Graph g = testing::SmallGraphZoo()[7].graph;
  Rng rng(4);
  WalkIndex fora_small =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kForaPlus, 10000, rng);
  WalkIndex fora_large =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kForaPlus, 1000000, rng);
  WalkIndex speed_a =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 10000, rng);
  WalkIndex speed_b =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 1000000, rng);
  EXPECT_GT(fora_large.total_walks(), 2 * fora_small.total_walks());
  EXPECT_EQ(speed_a.total_walks(), speed_b.total_walks());
}

TEST(WalkIndexTest, EndpointDistributionMatchesPpr) {
  // Endpoints of walks from v are samples of π_v; check the aggregate
  // frequency for a high-degree node.
  Graph g = CompleteGraph(6);
  Rng rng(5);
  // Give every node many walks by inflating W for the FORA sizing.
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kForaPlus, 40000000, rng);
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  auto endpoints = index.Endpoints(0);
  ASSERT_GT(endpoints.size(), 1000u);
  std::vector<double> freq(g.num_nodes(), 0.0);
  for (NodeId stop : endpoints) freq[stop] += 1.0 / endpoints.size();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(freq[v], exact[v], 0.02) << "v=" << v;
  }
}

TEST(WalkIndexTest, SizeBytesAccountsForStorage) {
  Graph g = PaperExampleGraph();
  Rng rng(6);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  EXPECT_EQ(index.SizeBytes(),
            (g.num_nodes() + 1) * sizeof(uint64_t) +
                index.total_walks() * sizeof(NodeId));
}

TEST(WalkIndexTest, SerializationRoundTrip) {
  Graph g = testing::SmallGraphZoo()[6].graph;
  Rng rng(7);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  testing::ScopedTempDir temp_dir;
  std::string path = temp_dir.File("walk_index.bin");
  ASSERT_TRUE(index.SaveTo(path).ok());
  auto loaded = WalkIndex::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_nodes(), index.num_nodes());
  ASSERT_EQ(loaded.value().total_walks(), index.total_walks());
  EXPECT_DOUBLE_EQ(loaded.value().alpha(), index.alpha());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto a = index.Endpoints(v);
    auto b = loaded.value().Endpoints(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST(WalkIndexTest, SaveLeavesNoTempFilesBehind) {
  // SaveTo stages through a temp name and renames; a successful save
  // must leave exactly the canonical file, not droppings a cache_dir
  // scan would trip over.
  Graph g = PaperExampleGraph();
  Rng rng(8);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  testing::ScopedTempDir temp_dir;
  const std::string dir = temp_dir.path();
  ASSERT_TRUE(index.SaveTo(dir + "/index.bin").ok());
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename(), "index.bin");
  }
  EXPECT_EQ(entries, 1u);
}

TEST(WalkIndexTest, LoadRejectsHostileHeaderCounts) {
  // A corrupt or hostile file with a valid magic but absurd counts
  // (2^60 endpoints) must fail the size validation cleanly instead of
  // attempting a ~4 EiB allocation.
  Graph g = PaperExampleGraph();
  Rng rng(9);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("hostile_index.bin");
  ASSERT_TRUE(index.SaveTo(path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t huge = uint64_t{1} << 60;
    f.seekp(8);  // n, then total — both claim 2^60
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  auto loaded = WalkIndex::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(WalkIndexTest, LoadRejectsTruncatedFile) {
  // A crash mid-write under an in-place scheme leaves a prefix of a
  // valid file; the exact-size check must refuse it so callers rebuild.
  Graph g = PaperExampleGraph();
  Rng rng(10);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("truncated_index.bin");
  ASSERT_TRUE(index.SaveTo(path).ok());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full * 3 / 5);
  auto loaded = WalkIndex::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(WalkIndexTest, LoadRejectsNonMonotonicOffsets) {
  Graph g = PaperExampleGraph();
  Rng rng(11);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("nonmonotonic_index.bin");
  ASSERT_TRUE(index.SaveTo(path).ok());
  {
    // Overwrite offsets_[1] with the total walk count: front/back stay
    // consistent but the prefix sums now run backwards at i = 1.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t bogus = index.total_walks();
    f.seekp(5 * sizeof(uint64_t) + sizeof(uint64_t));
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  auto loaded = WalkIndex::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(WalkIndexTest, LoadRejectsGarbage) {
  testing::ScopedTempDir temp_dir;
  std::string path = temp_dir.File("garbage_index.bin");
  {
    std::ofstream out(path);
    out << "garbage";
  }
  auto loaded = WalkIndex::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(WalkIndexTest, DeterministicGivenSeed) {
  Graph g = testing::SmallGraphZoo()[8].graph;
  Rng rng_a(50);
  Rng rng_b(50);
  WalkIndex a = WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng_a);
  WalkIndex b = WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng_b);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto ea = a.Endpoints(v);
    auto eb = b.Endpoints(v);
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) ASSERT_EQ(ea[i], eb[i]);
  }
}

TEST(WalkIndexTest, BuildRecordsTheGraphFingerprint) {
  // The staleness check behind cache_dir=: the fingerprint is embedded
  // at build time and survives a save/load round trip, so a cache saved
  // for one CSR can never silently serve another.
  Graph g = testing::SmallGraphZoo()[6].graph;
  WalkIndex index = WalkIndex::BuildParallel(
      g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, /*seed=*/5);
  EXPECT_EQ(index.graph_fingerprint(), g.Fingerprint());

  testing::ScopedTempDir temp_dir;
  std::string path = temp_dir.File("fingerprinted_index.bin");
  ASSERT_TRUE(index.SaveTo(path).ok());
  auto loaded = WalkIndex::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().graph_fingerprint(), g.Fingerprint());
}

// ---------------------------------------------------------------------
// DynamicWalkIndex — incremental walk refresh
// ---------------------------------------------------------------------

TEST(DynamicWalkIndexTest, FreshBuildMatchesBuildParallelBitForBit) {
  // The dynamic index shares the (seed, v) per-node stream scheme, so
  // before any mutation it IS the static index.
  Graph g = testing::SmallGraphZoo()[7].graph;
  constexpr uint64_t kSeed = 11;
  for (auto sizing :
       {WalkIndex::Sizing::kSpeedPpr, WalkIndex::Sizing::kForaPlus}) {
    const uint64_t w = sizing == WalkIndex::Sizing::kForaPlus ? 100000 : 0;
    WalkIndex flat = WalkIndex::BuildParallel(g, 0.2, sizing, w, kSeed);
    DynamicWalkIndex dynamic(g, 0.2, sizing, w, kSeed);
    ASSERT_EQ(dynamic.total_walks(), flat.total_walks());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      auto a = flat.Endpoints(v);
      auto b = dynamic.Endpoints(v);
      ASSERT_EQ(a.size(), b.size()) << "v=" << v;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "v=" << v << " i=" << i;
      }
    }
  }
}

TEST(DynamicWalkIndexTest, TracksTheSizingRuleAcrossMutations) {
  Graph g = PaperExampleGraph();
  DynamicGraph dg(g);
  DynamicWalkIndex index(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, /*seed=*/3);

  // Insertions grow K_u with the degree, deletions shrink it; dead ends
  // keep one walk.
  Rng rng(9);
  for (int step = 0; step < 30; ++step) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(dg.num_nodes()));
    const NodeId w = static_cast<NodeId>(rng.NextBounded(dg.num_nodes()));
    if (u == w) continue;
    if (dg.OutDegree(u) > 0 && rng.NextBernoulli(0.4)) {
      auto neighbors = dg.OutNeighbors(u);
      const NodeId victim =
          neighbors[rng.NextBounded(neighbors.size())];
      dg.RemoveEdge(u, victim);
    } else {
      dg.AddEdge(u, w);
    }
    index.RefreshMutatedNode(dg, u);

    uint64_t expected_total = 0;
    for (NodeId v = 0; v < dg.num_nodes(); ++v) {
      const uint64_t expected =
          dg.OutDegree(v) == 0 ? 1 : dg.OutDegree(v);
      ASSERT_EQ(index.Endpoints(v).size(), expected)
          << "step=" << step << " v=" << v;
      expected_total += expected;
    }
    ASSERT_EQ(index.total_walks(), expected_total) << "step=" << step;
  }
}

TEST(DynamicWalkIndexTest, RefreshRedirectsWalksOffRemovedEdges) {
  // Path 0→1→2→3: cutting (1, 2) makes {2, 3} unreachable from 0 and 1,
  // so after the refresh no stored walk from those origins may still
  // stop there — the stale-suffix invalidation must catch every walk
  // that crossed the removed edge.
  Graph g = PathGraph(4);
  DynamicGraph dg(g);
  DynamicWalkIndex index(g, 0.2, WalkIndex::Sizing::kForaPlus, 4000,
                         /*seed=*/21);
  bool crossed_before = false;
  for (NodeId origin : {NodeId{0}, NodeId{1}}) {
    for (NodeId stop : index.Endpoints(origin)) {
      crossed_before |= stop >= 2;
    }
  }
  ASSERT_TRUE(crossed_before) << "fixture too small to exercise the cut";

  dg.RemoveEdge(1, 2);
  const uint64_t resampled = index.RefreshMutatedNode(dg, 1);
  EXPECT_GT(resampled, 0u);
  for (NodeId origin : {NodeId{0}, NodeId{1}}) {
    for (NodeId stop : index.Endpoints(origin)) {
      ASSERT_LT(stop, 2u) << "origin=" << origin;
    }
  }
  // Walks from 2 and 3 never used node 1's adjacency and stay put.
  for (NodeId stop : index.Endpoints(2)) ASSERT_GE(stop, 2u);
  for (NodeId stop : index.Endpoints(3)) ASSERT_EQ(stop, 3u);
}

TEST(DynamicWalkIndexTest, RefreshedEndpointDistributionMatchesPpr) {
  // The distribution-identity claim, empirically: after a mutation and
  // its refresh, endpoint frequencies from a well-sampled node match
  // the exact PPR of the *updated* graph — the same tolerance the
  // static index passes on a fresh build.
  Graph g = CompleteGraph(6);
  DynamicGraph dg(g);
  DynamicWalkIndex index(g, 0.2, WalkIndex::Sizing::kForaPlus, 40000000,
                         /*seed=*/5);

  dg.RemoveEdge(0, 3);
  dg.AddEdge(5, 0);
  index.RefreshMutatedNode(dg, 0);
  index.RefreshMutatedNode(dg, 5);

  Graph updated = dg.Snapshot();
  std::vector<double> exact = testing::ExactPprDense(updated, 0, 0.2);
  auto endpoints = index.Endpoints(0);
  ASSERT_GT(endpoints.size(), 1000u);
  std::vector<double> freq(updated.num_nodes(), 0.0);
  for (NodeId stop : endpoints) freq[stop] += 1.0 / endpoints.size();
  for (NodeId v = 0; v < updated.num_nodes(); ++v) {
    EXPECT_NEAR(freq[v], exact[v], 0.02) << "v=" << v;
  }
}

TEST(DynamicWalkIndexTest, AddNodeMatchesFreshBuildBitForBit) {
  // Growing the index by a node replays exactly the walks a fresh build
  // at n+1 would draw for it (per-node streams make this local), so the
  // grown index and a from-scratch one are indistinguishable.
  Graph g = testing::SmallGraphZoo()[6].graph;
  constexpr uint64_t kSeed = 17;
  for (auto sizing :
       {WalkIndex::Sizing::kSpeedPpr, WalkIndex::Sizing::kForaPlus}) {
    const uint64_t w = sizing == WalkIndex::Sizing::kForaPlus ? 100000 : 0;
    DynamicGraph dg(g);
    DynamicWalkIndex grown(g, 0.2, sizing, w, kSeed);
    dg.AddNode();
    grown.AddNode();
    dg.AddNode();
    grown.AddNode();

    Graph snapshot = dg.Snapshot();
    ASSERT_EQ(snapshot.num_nodes(), g.num_nodes() + 2);
    DynamicWalkIndex fresh(snapshot, 0.2, sizing, w, kSeed);
    ASSERT_EQ(grown.total_walks(), fresh.total_walks());
    for (NodeId v = 0; v < snapshot.num_nodes(); ++v) {
      auto a = fresh.Endpoints(v);
      auto b = grown.Endpoints(v);
      ASSERT_EQ(a.size(), b.size()) << "v=" << v;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "v=" << v << " i=" << i;
      }
    }
    // The new nodes are isolated: every walk from them stays put.
    for (NodeId stop : grown.Endpoints(snapshot.num_nodes() - 1)) {
      ASSERT_EQ(stop, snapshot.num_nodes() - 1);
    }
  }
}

TEST(DynamicWalkIndexTest, SizeBytesStaysBoundedUnderChurn) {
  // The arena recycles retired walk slots; a long insert+delete stream
  // must not grow the footprint past a small constant factor of what a
  // fresh build on the final graph occupies (the pre-arena layout had
  // no such bound: every refresh leaked a vector header's slack).
  Graph g = testing::SmallGraphZoo()[7].graph;  // ba_120
  constexpr uint64_t kSeed = 23;
  for (auto sizing :
       {WalkIndex::Sizing::kSpeedPpr, WalkIndex::Sizing::kForaPlus}) {
    const uint64_t w = sizing == WalkIndex::Sizing::kForaPlus ? 200000 : 0;
    DynamicGraph dg(g);
    DynamicWalkIndex index(g, 0.2, sizing, w, kSeed);
    Rng rng(29);
    for (int step = 0; step < 400; ++step) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(dg.num_nodes()));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(dg.num_nodes()));
      if (u == v) continue;
      if (dg.OutDegree(u) > 0 && rng.NextBernoulli(0.5)) {
        auto neighbors = dg.OutNeighbors(u);
        dg.RemoveEdge(u, neighbors[rng.NextBounded(neighbors.size())]);
      } else {
        dg.AddEdge(u, v);
      }
      index.RefreshMutatedNode(dg, u);
    }
    DynamicWalkIndex fresh(dg.Snapshot(), 0.2, sizing, w, kSeed);
    // Degree-sized walk counts converge exactly; kForaPlus counts track
    // the ratio derived at the last drift event, which stays within the
    // drift factor of the fresh build's.
    if (sizing == WalkIndex::Sizing::kSpeedPpr) {
      EXPECT_EQ(index.total_walks(), fresh.total_walks());
    } else {
      EXPECT_LT(index.total_walks(), 2 * fresh.total_walks());
      EXPECT_GT(2 * index.total_walks(), fresh.total_walks());
    }
    // Compaction bounds each arena at ~2x its live words plus a small
    // per-node slack; 4x total plus a fixed allowance is comfortably
    // above the invariant and far below unbounded leak territory.
    EXPECT_LE(index.SizeBytes(), 4 * fresh.SizeBytes() + 64 * 1024)
        << "sizing=" << static_cast<int>(sizing);
  }
}

TEST(DynamicWalkIndexTest, DriftResizeRederivesTheForaRatio) {
  // Force an m-drift: CompleteGraph(6) has m = 30; deleting 16 edges
  // brings m to 14, and 14 * drift_factor(2) < 30 trips the resize on
  // the final refresh. After it, per-node walk counts must equal a
  // fresh build at the new m, and endpoint frequencies must still match
  // the exact PPR of the final graph — the conformance bar a fresh
  // index is held to, now across a drift event.
  Graph g = CompleteGraph(6);
  DynamicGraph dg(g);
  DynamicWalkIndex index(g, 0.2, WalkIndex::Sizing::kForaPlus, 40000000,
                         /*seed=*/5);
  ASSERT_EQ(index.resize_events(), 0u);

  int deleted = 0;
  for (NodeId u = 1; u < 6 && deleted < 16; ++u) {
    for (NodeId v = 1; v < 6 && deleted < 16; ++v) {
      if (u == v) continue;
      dg.RemoveEdge(u, v);
      index.RefreshMutatedNode(dg, u);
      ++deleted;
    }
  }
  ASSERT_EQ(deleted, 16);
  ASSERT_EQ(dg.num_edges(), 14u);
  EXPECT_EQ(index.resize_events(), 1u);

  Graph updated = dg.Snapshot();
  DynamicWalkIndex fresh(updated, 0.2, WalkIndex::Sizing::kForaPlus, 40000000,
                         /*seed=*/99);
  for (NodeId v = 0; v < updated.num_nodes(); ++v) {
    EXPECT_EQ(index.Endpoints(v).size(), fresh.Endpoints(v).size())
        << "v=" << v;
  }
  EXPECT_EQ(index.total_walks(), fresh.total_walks());

  std::vector<double> exact = testing::ExactPprDense(updated, 0, 0.2);
  auto endpoints = index.Endpoints(0);
  ASSERT_GT(endpoints.size(), 1000u);
  std::vector<double> freq(updated.num_nodes(), 0.0);
  for (NodeId stop : endpoints) freq[stop] += 1.0 / endpoints.size();
  for (NodeId v = 0; v < updated.num_nodes(); ++v) {
    EXPECT_NEAR(freq[v], exact[v], 0.02) << "v=" << v;
  }
}

TEST(DynamicWalkIndexTest, DriftFactorZeroFreezesTheRatio) {
  // drift_factor = 0 restores the frozen-ratio behavior: the same
  // 30 → 14 edge drift resizes nothing.
  Graph g = CompleteGraph(6);
  DynamicGraph dg(g);
  DynamicWalkIndex index(g, 0.2, WalkIndex::Sizing::kForaPlus, 1000000,
                         /*seed=*/5, /*drift_factor=*/0.0);
  const size_t walks_before = index.Endpoints(0).size();
  int deleted = 0;
  for (NodeId u = 1; u < 6 && deleted < 16; ++u) {
    for (NodeId v = 1; v < 6 && deleted < 16; ++v) {
      if (u == v) continue;
      dg.RemoveEdge(u, v);
      index.RefreshMutatedNode(dg, u);
      ++deleted;
    }
  }
  EXPECT_EQ(index.resize_events(), 0u);
  // Node 0's adjacency never mutated, so with the ratio frozen its walk
  // count is untouched too.
  EXPECT_EQ(index.Endpoints(0).size(), walks_before);
}

}  // namespace
}  // namespace ppr
