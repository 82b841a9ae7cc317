// Fuzz-style robustness tests: random and adversarial inputs must never
// crash library entry points — they either succeed or return a Status.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <vector>
#include <string>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "approx/walk_index.h"
#include "core/power_push.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/string_utils.h"
#include "util/rng.h"

namespace ppr {
namespace {

TEST(RobustnessTest, EdgeListReaderSurvivesRandomBytes) {
  Rng rng(1);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("fuzz_input.txt");
  int built = 0;
  for (int trial = 0; trial < 250; ++trial) {
    // The first 50 trials write raw bytes. Those almost never parse, so
    // the rest write edge-list-shaped lines with a few random bytes
    // mixed in, and most of them reach the builder.
    if (trial < 50) {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(512);
      for (size_t i = 0; i < len; ++i) {
        // Bias toward printable bytes and digits so some inputs get deep
        // into the parser.
        char c;
        const uint64_t pick = rng.NextBounded(10);
        if (pick < 4) {
          c = static_cast<char>('0' + rng.NextBounded(10));
        } else if (pick < 7) {
          c = static_cast<char>(rng.NextBounded(2) ? ' ' : '\n');
        } else {
          c = static_cast<char>(rng.NextBounded(256));
        }
        out.put(c);
      }
    } else {
      std::ofstream out(path, std::ios::binary);
      auto put_id = [&] {
        const uint64_t digits = rng.NextBounded(100) == 0
                                    ? 7 + rng.NextBounded(5)
                                    : 1 + rng.NextBounded(4);
        for (uint64_t d = 0; d < digits; ++d) {
          out.put(static_cast<char>('0' + rng.NextBounded(10)));
        }
      };
      const uint64_t lines = rng.NextBounded(60);
      for (uint64_t line = 0; line < lines; ++line) {
        const uint64_t pick = rng.NextBounded(40);
        if (pick == 0) {
          out << "# comment";
        } else if (pick == 1) {
          out.put(static_cast<char>(rng.NextBounded(256)));
        } else if (pick > 2) {  // pick == 2 leaves a blank line
          put_id();
          out.put(" \t,"[rng.NextBounded(3)]);
          put_id();
        }
        out.put('\n');
      }
    }
    auto result = ReadEdgeListText(path);
    // Must terminate with either a value or a clean error; any crash
    // fails the test by killing the process.
    if (!result.ok()) {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
      continue;
    }
    // Whatever parses must also build, under every option combination.
    // Ids of 2^20 and up are skipped only to keep the n-sized arrays
    // small; the id limit itself is pinned in edge_list_io_test.
    const std::vector<Edge>& edges = result.value();
    NodeId max_id = 0;
    for (const Edge& e : edges) max_id = std::max({max_id, e.src, e.dst});
    if (max_id >= (NodeId{1} << 20)) continue;
    ++built;
    for (const BuildOptions& options : testing::AllBuildOptions()) {
      const Graph g = GraphBuilder::FromEdges(edges, options);
      ASSERT_EQ(g.out_offsets().back(), g.num_edges());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        // Rows are sorted, and strictly increasing once deduplicated.
        const auto row = g.OutNeighbors(v);
        const auto out_of_order =
            options.deduplicate
                ? std::ranges::adjacent_find(row, std::greater_equal<>())
                : std::ranges::is_sorted_until(row);
        ASSERT_EQ(out_of_order, row.end());
      }
    }
  }
  EXPECT_GE(built, 50) << "too few fuzz inputs got as far as the builder";
}

TEST(RobustnessTest, UpdateStreamReaderSurvivesRandomBytes) {
  Rng rng(4);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("fuzz_updates.txt");
  for (int trial = 0; trial < 50; ++trial) {
    {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(512);
      for (size_t i = 0; i < len; ++i) {
        // Bias toward the stream's own alphabet — kind markers, digits,
        // separators — so many trials get past the kind field and into
        // the id parsing and range checks, not just the first branch.
        char c;
        const uint64_t pick = rng.NextBounded(12);
        if (pick < 2) {
          c = "+-adnx"[rng.NextBounded(6)];
        } else if (pick < 6) {
          c = static_cast<char>('0' + rng.NextBounded(10));
        } else if (pick < 9) {
          c = " \t\n,"[rng.NextBounded(4)];
        } else {
          c = static_cast<char>(rng.NextBounded(256));
        }
        out.put(c);
      }
    }
    auto result = ReadUpdateStreamText(path);
    // Either a parsed batch or a clean Status; a crash kills the process
    // and fails the test. Successful parses must still be well-formed.
    if (result.ok()) {
      for (const auto& update : result.value().updates) {
        EXPECT_TRUE(update.kind == UpdateKind::kInsert ||
                    update.kind == UpdateKind::kDelete ||
                    update.kind == UpdateKind::kAddNode ||
                    update.kind == UpdateKind::kRemoveNode);
      }
    } else {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
  }
}

TEST(RobustnessTest, WalkIndexLoaderSurvivesRandomBytes) {
  // The index cache loader shares the threat model of the binary graph
  // reader: cache_dir= files arrive from disk, possibly truncated by a
  // crashed saver or scribbled on — random bytes must produce a clean
  // Status, never a crash or a giant allocation.
  Rng rng(5);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("fuzz_walk_index.bin");
  for (int trial = 0; trial < 50; ++trial) {
    {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(512);
      // Half the trials start with the real magic so the fuzz reaches
      // the count validation and offset checks, not just the first read.
      if (rng.NextBounded(2) == 1) {
        const uint64_t magic = 0x5050523257494458ULL;  // "PPR2WIDX"
        out.write(reinterpret_cast<const char*>(&magic), 8);
      }
      for (size_t i = 0; i < len; ++i) {
        out.put(static_cast<char>(rng.NextBounded(256)));
      }
    }
    auto result = WalkIndex::LoadFrom(path);
    if (!result.ok()) {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
  }
}

TEST(RobustnessTest, WalkIndexLoaderRejectsHostileHeader) {
  // A hostile file with a valid magic claiming 2^60 walks must fail the
  // size validation, not OOM inside resize(): the header's counts are
  // only trusted after they reconcile with the actual file size.
  Graph g = PathGraph(3);
  Rng rng(6);
  WalkIndex valid =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("hostile_walk_index.bin");
  ASSERT_TRUE(valid.SaveTo(path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t huge = uint64_t{1} << 60;
    f.seekp(8);  // node count, then walk count
    f.write(reinterpret_cast<const char*>(&huge), 8);
    f.write(reinterpret_cast<const char*>(&huge), 8);
  }
  auto result = WalkIndex::LoadFrom(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(RobustnessTest, GraphBinaryReaderSurvivesRandomBytes) {
  Rng rng(2);
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("fuzz_graph.bin");
  for (int trial = 0; trial < 50; ++trial) {
    {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(256);
      for (size_t i = 0; i < len; ++i) {
        out.put(static_cast<char>(rng.NextBounded(256)));
      }
    }
    auto result = ReadGraphBinary(path);
    EXPECT_FALSE(result.ok());  // random bytes can't be a valid graph
  }
}

TEST(RobustnessTest, GraphBinaryReaderRejectsHostileHeader) {
  // A valid magic followed by absurd counts must fail cleanly (not OOM):
  // the reader's reads hit EOF before any giant allocation is usable.
  testing::ScopedTempDir temp_dir;
  const std::string path = temp_dir.File("hostile_graph.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const uint64_t magic = 0x5050523147524248ULL;
    const uint64_t n = 100;  // plausible n, truncated body
    const uint64_t m = 50;
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
    // No CSR arrays at all.
  }
  auto result = ReadGraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(RobustnessTest, BuilderHandlesRandomEdgeSoup) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    GraphBuilder builder;
    const size_t edges = rng.NextBounded(500);
    const NodeId universe = static_cast<NodeId>(1 + rng.NextBounded(64));
    for (size_t i = 0; i < edges; ++i) {
      builder.AddEdge(static_cast<NodeId>(rng.NextBounded(universe)),
                      static_cast<NodeId>(rng.NextBounded(universe)));
    }
    Graph g = builder.Build();
    // Whatever came out must satisfy CSR invariants (constructor CHECKs)
    // and be consumable by a solver without issue.
    if (g.num_nodes() > 0) {
      PowerPushOptions options;
      options.lambda = 1e-4;
      PprEstimate estimate;
      PowerPush(g, 0, options, &estimate);
      EXPECT_NEAR(estimate.ReserveSum() + estimate.ResidueSum(), 1.0, 1e-9);
    }
  }
}

TEST(RobustnessTest, RegistrySpecsSurviveRandomStrings) {
  // Random specs built from the registry's names and option keys with
  // hostile values: Create returns a status or a solver, and every
  // solver it returns prepares and answers a tiny graph with a clean
  // status. Per-query overrides are fuzzed the same way. A crash kills
  // the process and fails the test.
  Rng rng(7);
  testing::ScopedTempDir temp_dir;
  Rng graph_rng(8);
  Graph graph = BarabasiAlbert(24, 2, graph_rng);  // symmetric: no dead ends
  graph.BuildInAdjacency();
  const SolverRegistry& registry = SolverRegistry::Global();
  const std::vector<std::string> names = registry.Names();
  const std::vector<std::string> hostile = {
      "nan", "inf", "-inf", "-1", "1e308", "", "-0", "0x10"};
  const std::vector<std::string> plausible = {
      "0", "0.3", "0.5", "1", "2", "3", "true", "false", "none", "degree"};
  auto random_bytes = [&rng] {
    std::string bytes(rng.NextBounded(6), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    return bytes;
  };
  auto pick = [&rng](const auto& from) {
    return std::string(from[rng.NextBounded(from.size())]);
  };
  const double overrides[] = {0.0, 0.3, 1.0, 2.0, -1.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()};
  auto pick_override = [&] {
    return rng.NextBounded(6) == 0 ? overrides[rng.NextBounded(7)] : 0.0;
  };

  int created = 0;
  int solved_with_options = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string spec = rng.NextBounded(10) == 0 ? random_bytes() : pick(names);
    const SolverRegistry::Entry* entry = registry.Find(spec);
    const std::string help = entry != nullptr ? entry->options_help : "alpha";
    const std::vector<std::string_view> keys = SplitAndTrim(help, ", ");
    std::vector<std::string> options;
    for (uint64_t i = rng.NextBounded(4); i > 0; --i) {
      const uint64_t roll = rng.NextBounded(20);
      if (roll == 0 && !options.empty()) {
        options.push_back(options.back());  // repeated key
        continue;
      }
      const std::string key = roll == 1   ? random_bytes()
                              : roll == 2 ? std::string("frobnicate")
                                          : pick(keys);
      std::string value = rng.NextBounded(2) == 0 ? pick(plausible)
                          : rng.NextBounded(5) == 0 ? random_bytes()
                                                    : pick(hostile);
      // A cache directory is a real path; keep it inside the test's own.
      if (key == "cache_dir") value = temp_dir.File("cache");
      options.push_back(rng.NextBounded(8) == 0 ? key : key + "=" + value);
    }
    for (size_t i = 0; i < options.size(); ++i) {
      spec += (i == 0 ? ":" : ",") + options[i];
    }

    auto solver = registry.Create(spec);
    if (!solver.ok()) continue;
    created++;
    Status prepared = solver.value()->Prepare(graph);
    if (!prepared.ok()) {
      EXPECT_EQ(prepared.code(), StatusCode::kFailedPrecondition)
          << spec << ": " << prepared.ToString();
      continue;
    }
    PprQuery query;
    query.source = static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
    query.top_k = rng.NextBounded(4);
    query.want_residues = rng.NextBounded(2) == 1;
    query.alpha = pick_override();
    query.lambda = pick_override();
    query.epsilon = pick_override();
    query.mu = pick_override();
    CancelToken token;
    token.ArmDeadline(std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(100));
    SolverContext context(/*seed=*/trial);
    context.set_cancel_token(&token);
    PprResult result;
    const Status status = solver.value()->Solve(query, context, &result);
    EXPECT_TRUE(status.ok() ||
                status.code() == StatusCode::kInvalidArgument ||
                status.code() == StatusCode::kFailedPrecondition ||
                status.code() == StatusCode::kDeadlineExceeded)
        << spec << ": " << status.ToString();
    if (status.ok()) {
      EXPECT_EQ(result.scores.size(), graph.num_nodes()) << spec;
      if (!options.empty()) solved_with_options++;
    }
  }
  EXPECT_GE(created, 300) << "too few fuzz specs got past Create";
  EXPECT_GE(solved_with_options, 30)
      << "too few specs with options got as far as a solve";
}

TEST(RobustnessTest, SolversSurviveEverySourceOfATinyGraph) {
  // Exhaustive source sweep catches boundary ids (0, n-1, dead ends).
  Graph g = PathGraph(7);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    PowerPushOptions options;
    options.lambda = 1e-8;
    PprEstimate estimate;
    PowerPush(g, s, options, &estimate);
    std::vector<double> exact = testing::ExactPprDense(g, s, options.alpha);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NEAR(estimate.reserve[v], exact[v], 1e-6)
          << "s=" << s << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace ppr
