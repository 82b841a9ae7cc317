#include "graph/datasets.h"

#include <cstdlib>
#include <iterator>

#include <gtest/gtest.h>

#include "graph/graph_stats.h"

namespace ppr {
namespace {

TEST(DatasetsTest, RegistryHasSixDatasetsInTableOneOrder) {
  const auto& specs = PaperDatasets();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].paper_name, "DBLP");
  EXPECT_EQ(specs[1].paper_name, "Web-St");
  EXPECT_EQ(specs[2].paper_name, "Pokec");
  EXPECT_EQ(specs[3].paper_name, "LJ");
  EXPECT_EQ(specs[4].paper_name, "Orkut");
  EXPECT_EQ(specs[5].paper_name, "Twitter");
}

TEST(DatasetsTest, DirectednessMatchesTableOne) {
  EXPECT_FALSE(FindDataset("DBLP").directed);
  EXPECT_TRUE(FindDataset("Web-St").directed);
  EXPECT_TRUE(FindDataset("Pokec").directed);
  EXPECT_TRUE(FindDataset("LJ").directed);
  EXPECT_FALSE(FindDataset("Orkut").directed);
  EXPECT_TRUE(FindDataset("Twitter").directed);
}

TEST(DatasetsTest, FindByEitherName) {
  EXPECT_EQ(FindDataset("dblp-sim").paper_name, "DBLP");
  EXPECT_EQ(FindDataset("Orkut").name, "orkut-sim");
}

TEST(DatasetsTest, SmallScaleAverageDegreeNearTarget) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    Graph g = MakeDataset(spec, /*scale=*/0.05);
    // Degree targets are approximate at small n (dedup losses, integer
    // out-degrees); allow 25%.
    EXPECT_NEAR(g.AverageDegree(), spec.avg_degree, spec.avg_degree * 0.25)
        << spec.name;
  }
}

TEST(DatasetsTest, UndirectedStandInsAreSymmetric) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    if (spec.directed) continue;
    Graph g = MakeDataset(spec, /*scale=*/0.05);
    g.BuildInAdjacency();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(g.OutDegree(v), g.InDegree(v))
          << spec.name << " node " << v;
    }
  }
}

TEST(DatasetsTest, DeterministicAcrossCalls) {
  const DatasetSpec& spec = FindDataset("pokec-sim");
  Graph a = MakeDataset(spec, 0.05, /*seed=*/42);
  Graph b = MakeDataset(spec, 0.05, /*seed=*/42);
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
  EXPECT_EQ(a.out_targets(), b.out_targets());
}

TEST(DatasetsTest, SeedChangesGraph) {
  const DatasetSpec& spec = FindDataset("pokec-sim");
  Graph a = MakeDataset(spec, 0.05, /*seed=*/1);
  Graph b = MakeDataset(spec, 0.05, /*seed=*/2);
  EXPECT_NE(a.out_targets(), b.out_targets());
}

TEST(DatasetsTest, ScaleControlsNodeCount) {
  const DatasetSpec& spec = FindDataset("lj-sim");
  Graph small = MakeDataset(spec, 0.02);
  Graph larger = MakeDataset(spec, 0.04);
  EXPECT_GT(larger.num_nodes(), small.num_nodes());
  EXPECT_NEAR(static_cast<double>(larger.num_nodes()),
              2.0 * static_cast<double>(small.num_nodes()),
              0.1 * larger.num_nodes());
}

TEST(DatasetsTest, MinimumThousandNodes) {
  const DatasetSpec& spec = FindDataset("dblp-sim");
  Graph g = MakeDataset(spec, 1e-6);
  EXPECT_GE(g.num_nodes(), 900u);  // ~1000 modulo isolated-node cleanup
}

TEST(DatasetsTest, HeavyTailsEverywhere) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    Graph g = MakeDataset(spec, 0.05);
    if (spec.family == DatasetSpec::Family::kCopyWeb) {
      // Web crawls have bounded out-degree; their heavy tail lives in the
      // in-degree (popular pages). Check concentration on the transpose.
      g.BuildInAdjacency();
      NodeId max_in = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        max_in = std::max(max_in, g.InDegree(v));
      }
      EXPECT_GT(max_in, 20 * g.AverageDegree())
          << spec.name << " should have in-degree hubs";
      continue;
    }
    GraphStats stats = ComputeGraphStats(g);
    EXPECT_GT(stats.top1pct_degree_share, 0.03)
        << spec.name << " should be heavy-tailed";
  }
}

TEST(DatasetsTest, StandInsArePinnedAtSmallScale) {
  // The exact CSR of every stand-in at scale 0.05 (default seed). A
  // change to a generator, the RNG or GraphBuilder that moves a single
  // edge or label changes the fingerprint, and with it every bench
  // number and cached WalkIndex keyed to these graphs.
  struct Pinned {
    const char* name;
    NodeId n;
    EdgeId m;
    uint64_t fingerprint;
  };
  const Pinned kPinned[] = {
      {"dblp-sim", 1638, 9742, 0x2d623cab10ff258aULL},
      {"webst-sim", 1638, 12854, 0x66edfe8be21f68f7ULL},
      {"pokec-sim", 3276, 62834, 0x0275d4604ed46228ULL},
      {"lj-sim", 6553, 94905, 0xacd30942004d6befULL},
      {"orkut-sim", 2457, 186656, 0x91f72c82a278567fULL},
      {"twitter-sim", 6553, 221458, 0x24f20ff8ec277a33ULL},
  };
  ASSERT_EQ(std::size(kPinned), PaperDatasets().size());
  for (const Pinned& pin : kPinned) {
    const Graph g = MakeDataset(FindDataset(pin.name), 0.05);
    EXPECT_EQ(g.num_nodes(), pin.n) << pin.name;
    EXPECT_EQ(g.num_edges(), pin.m) << pin.name;
    EXPECT_EQ(g.Fingerprint(), pin.fingerprint) << pin.name;
  }
}

TEST(DatasetsTest, BenchScaleFromEnvParsesAndClamps) {
  ASSERT_EQ(setenv("PPR_BENCH_SCALE", "0.5", 1), 0);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 0.5);
  ASSERT_EQ(setenv("PPR_BENCH_SCALE", "1000", 1), 0);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 100.0);
  ASSERT_EQ(setenv("PPR_BENCH_SCALE", "garbage", 1), 0);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 1.0);
  ASSERT_EQ(unsetenv("PPR_BENCH_SCALE"), 0);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 1.0);
}

TEST(DatasetsDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(FindDataset("no-such-dataset"), "unknown dataset");
}

}  // namespace
}  // namespace ppr
