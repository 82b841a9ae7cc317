#include "eval/trace_export.h"

#include <fstream>

#include <gtest/gtest.h>

#include "test_util.h"

namespace ppr {
namespace {

std::vector<TraceSeries> SampleSeries() {
  return {
      {"PowerPush", {{0.01, 100, 0.5}, {0.02, 200, 0.25}}},
      {"PowItr", {{0.015, 150, 0.6}}},
  };
}

TEST(TraceExportTest, CsvHasHeaderAndRows) {
  std::string csv = TracesToCsv(SampleSeries());
  EXPECT_NE(csv.find("label,seconds,updates,rsum\n"), std::string::npos);
  EXPECT_NE(csv.find("PowerPush,"), std::string::npos);
  EXPECT_NE(csv.find(",200,"), std::string::npos);
  // 1 header + 3 data rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(TraceExportTest, RoundTrip) {
  testing::ScopedTempDir temp_dir;
  std::string path = temp_dir.File("traces.csv");
  auto series = SampleSeries();
  ASSERT_TRUE(WriteTracesCsv(path, series).ok());
  auto loaded = ReadTracesCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].label, "PowerPush");
  ASSERT_EQ(loaded.value()[0].points.size(), 2u);
  EXPECT_EQ(loaded.value()[0].points[1].updates, 200u);
  EXPECT_DOUBLE_EQ(loaded.value()[0].points[1].rsum, 0.25);
  EXPECT_NEAR(loaded.value()[0].points[0].seconds, 0.01, 1e-9);
}

TEST(TraceExportTest, EmptySeriesRoundTrips) {
  testing::ScopedTempDir temp_dir;
  std::string path = temp_dir.File("empty.csv");
  ASSERT_TRUE(WriteTracesCsv(path, {}).ok());
  auto loaded = ReadTracesCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(TraceExportTest, RejectsBadHeader) {
  testing::ScopedTempDir temp_dir;
  std::string path = temp_dir.File("bad_header.csv");
  {
    std::ofstream out(path);
    out << "nope\n";
  }
  auto loaded = ReadTracesCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(TraceExportTest, RejectsMalformedRow) {
  testing::ScopedTempDir temp_dir;
  std::string path = temp_dir.File("bad_row.csv");
  {
    std::ofstream out(path);
    out << "label,seconds,updates,rsum\n";
    out << "x,1.0,notanumber,0.5\n";
  }
  auto loaded = ReadTracesCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(TraceExportTest, MissingFileIsIOError) {
  testing::ScopedTempDir temp_dir;
  auto loaded = ReadTracesCsv(temp_dir.File("nonexistent.csv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace ppr
