#include "graph/edge_list_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace ppr {
namespace {

class EdgeListIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return temp_dir_.File(name);
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }

 private:
  testing::ScopedTempDir temp_dir_;
};

TEST_F(EdgeListIoTest, ReadsSnapFormat) {
  std::string path = TempPath("snap.txt");
  WriteFile(path,
            "# Directed graph: example\n"
            "# Nodes: 3 Edges: 3\n"
            "0\t1\n"
            "1\t2\n"
            "\n"
            "% trailing comment style\n"
            "2\t0\n");
  auto edges = ReadEdgeListText(path);
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  ASSERT_EQ(edges.value().size(), 3u);
  EXPECT_EQ(edges.value()[0], (Edge{0, 1}));
  EXPECT_EQ(edges.value()[2], (Edge{2, 0}));
}

TEST_F(EdgeListIoTest, AcceptsSpacesAndCommas) {
  std::string path = TempPath("mixed.txt");
  WriteFile(path, "0 1\n1,2\n2  3\n");
  auto edges = ReadEdgeListText(path);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges.value().size(), 3u);
}

TEST_F(EdgeListIoTest, MissingFileIsIOError) {
  auto edges = ReadEdgeListText(TempPath("does_not_exist.txt"));
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kIOError);
}

TEST_F(EdgeListIoTest, MalformedLineIsCorruption) {
  std::string path = TempPath("bad.txt");
  WriteFile(path, "0 1\nnot-a-number 2\n");
  auto edges = ReadEdgeListText(path);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kCorruption);
  EXPECT_NE(edges.status().message().find(":2"), std::string::npos)
      << "error should carry the line number: "
      << edges.status().message();
}

TEST_F(EdgeListIoTest, SingleFieldLineIsCorruption) {
  std::string path = TempPath("short.txt");
  WriteFile(path, "42\n");
  auto edges = ReadEdgeListText(path);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kCorruption);
}

TEST_F(EdgeListIoTest, OversizedIdIsOutOfRange) {
  std::string path = TempPath("big.txt");
  WriteFile(path, "0 99999999999\n");
  auto edges = ReadEdgeListText(path);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kOutOfRange);
}

TEST_F(EdgeListIoTest, MaxUint32IdIsOutOfRange) {
  // 2^32 - 1 fits a NodeId but not the builder's id universe (max + 1).
  for (const char* line : {"0 4294967295\n", "4294967295 0\n"}) {
    std::string path = TempPath("max_id.txt");
    WriteFile(path, line);
    auto edges = ReadEdgeListText(path);
    ASSERT_FALSE(edges.ok()) << line;
    EXPECT_EQ(edges.status().code(), StatusCode::kOutOfRange) << line;
  }
  // The largest id the builder takes still parses. (Building it would
  // allocate an id map of 2^32 - 1 entries.)
  std::string path = TempPath("below_max_id.txt");
  WriteFile(path, "4294967294 0\n");
  auto edges = ReadEdgeListText(path);
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges.value(), (std::vector<Edge>{{4294967294u, 0}}));
}

TEST_F(EdgeListIoTest, TextRoundTrip) {
  std::string path = TempPath("roundtrip.txt");
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {5, 3}};
  ASSERT_TRUE(WriteEdgeListText(path, edges).ok());
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), edges);
}

TEST_F(EdgeListIoTest, LoadGraphAppliesCleaning) {
  std::string path = TempPath("load.txt");
  WriteFile(path, "10 20\n20 10\n10 10\n10 20\n");
  auto graph = LoadGraphFromEdgeList(path);
  ASSERT_TRUE(graph.ok());
  // Self loop dropped, duplicate collapsed, ids relabeled to {0, 1}.
  EXPECT_EQ(graph.value().num_nodes(), 2u);
  EXPECT_EQ(graph.value().num_edges(), 2u);
}

TEST_F(EdgeListIoTest, BinaryRoundTripPreservesCsrExactly) {
  Rng rng(8);
  Graph g = ErdosRenyi(300, 6.0, rng);
  std::string path = TempPath("graph.bin");
  ASSERT_TRUE(WriteGraphBinary(path, g).ok());
  auto loaded = ReadGraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().out_offsets(), g.out_offsets());
  EXPECT_EQ(loaded.value().out_targets(), g.out_targets());
}

TEST_F(EdgeListIoTest, BinaryRejectsBadMagic) {
  std::string path = TempPath("bad.bin");
  WriteFile(path, "this is not a graph file at all, definitely");
  auto loaded = ReadGraphBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(EdgeListIoTest, BinaryRejectsTruncation) {
  Rng rng(9);
  Graph g = ErdosRenyi(100, 4.0, rng);
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(WriteGraphBinary(path, g).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  WriteFile(path, content.substr(0, content.size() / 2));
  auto loaded = ReadGraphBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(EdgeListIoTest, UpdateStreamRoundTrips) {
  UpdateBatch batch;
  batch.Insert(0, 5).Delete(3, 1).Insert(7, 2);
  std::string path = TempPath("updates.txt");
  ASSERT_TRUE(WriteUpdateStreamText(path, batch).ok());
  auto loaded = ReadUpdateStreamText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().updates, batch.updates);
}

TEST_F(EdgeListIoTest, UpdateStreamAcceptsAliasesAndComments) {
  std::string path = TempPath("updates_alias.txt");
  WriteFile(path,
            "# update stream\n"
            "a 1 2\n"
            "\n"
            "d 1 2\n"
            "+ 3 4\n");
  auto loaded = ReadUpdateStreamText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value().updates[0],
            (EdgeUpdate{UpdateKind::kInsert, 1, 2}));
  EXPECT_EQ(loaded.value().updates[1],
            (EdgeUpdate{UpdateKind::kDelete, 1, 2}));
}

TEST_F(EdgeListIoTest, UpdateStreamRejectsMalformedLines) {
  EXPECT_FALSE(ReadUpdateStreamText(TempPath("nope.txt")).ok());

  std::string path = TempPath("updates_bad.txt");
  WriteFile(path, "+ 1\n");
  EXPECT_EQ(ReadUpdateStreamText(path).status().code(),
            StatusCode::kCorruption);
  WriteFile(path, "* 1 2\n");
  EXPECT_EQ(ReadUpdateStreamText(path).status().code(),
            StatusCode::kCorruption);
  WriteFile(path, "+ 1 banana\n");
  EXPECT_EQ(ReadUpdateStreamText(path).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace ppr
