// Translation-result files (JSON round trips, malformed documents) and the
// Table 1 side-by-side rendering.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/result_io.h"

namespace trips::core {
namespace {

TEST(ResultIoTest, JsonRoundTrip) {
  MobilitySemanticsSequence seq;
  seq.device_id = "3a.*.14";
  seq.semantics.push_back({kEventPassBy, 5, "Center Hall", {100'000, 200'000}, false});
  seq.semantics.push_back({kEventStay, 2, "Nike", {250'000, 500'000}, true});

  json::Value doc = SemanticsToJson(seq);
  auto back = SemanticsFromJson(doc);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->device_id, "3a.*.14");
  ASSERT_EQ(back->Size(), 2u);
  EXPECT_EQ(back->semantics[0], seq.semantics[0]);
  EXPECT_EQ(back->semantics[1], seq.semantics[1]);
}

TEST(ResultIoTest, FileRoundTrip) {
  MobilitySemanticsSequence seq;
  seq.device_id = "dev";
  seq.semantics.push_back({kEventStay, 0, "A", {0, 1000}, false});
  std::string path = testing::TempDir() + "/trips_result.json";
  ASSERT_TRUE(WriteResultFile(seq, path).ok());
  auto back = ReadResultFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->semantics[0].region_name, "A");
  std::remove(path.c_str());
}

TEST(ResultIoTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(SemanticsFromJson(json::Value(1.0)).ok());
  auto no_array = json::Parse(R"({"device":"d"})");
  ASSERT_TRUE(no_array.ok());
  EXPECT_FALSE(SemanticsFromJson(no_array.ValueOrDie()).ok());
  auto bad_range = json::Parse(
      R"({"device":"d","semantics":[{"event":"stay","begin":500,"end":100}]})");
  ASSERT_TRUE(bad_range.ok());
  EXPECT_FALSE(SemanticsFromJson(bad_range.ValueOrDie()).ok());
}

TEST(ResultIoTest, RenderTable1SideBySide) {
  positioning::PositioningSequence raw;
  raw.device_id = "oi";
  for (int i = 0; i < 12; ++i) {
    raw.records.emplace_back(5.0 + i, 12.0, 2, static_cast<TimestampMs>(i) * 7000);
  }
  MobilitySemanticsSequence sem;
  sem.device_id = "oi";
  sem.semantics.push_back({kEventStay, 0, "Adidas", {0, 50'000}, false});
  sem.semantics.push_back({kEventPassBy, 1, "Nike", {51'000, 77'000}, false});

  std::string table = RenderTable1(raw, sem, 8);
  EXPECT_NE(table.find("Raw Positioning Records"), std::string::npos);
  EXPECT_NE(table.find("Mobility Semantics"), std::string::npos);
  EXPECT_NE(table.find("oi, (5.0, 12.0, 3F)"), std::string::npos);
  EXPECT_NE(table.find("(stay, Adidas"), std::string::npos);
  EXPECT_NE(table.find("more records"), std::string::npos);  // elision row
}

}  // namespace
}  // namespace trips::core
