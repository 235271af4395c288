// Cross-module integration flows that no single-module test covers: trace a
// space with the Space Modeler, persist everything (DSM, identifier, result
// files), reload in a fresh session, and verify the reloaded session behaves
// identically — the paper's "stored in the backend for the reuse in other
// translation tasks in the same indoor space" (§4).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/trips.h"
#include "store/trip_store.h"

namespace trips {
namespace {

class SessionReuseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/trips_session";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SessionReuseFixture, FullPersistAndReloadRoundTrip) {
  // ---- session 1: configure, train, translate, persist ----
  auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());
  auto planner = dsm::RoutePlanner::Build(&mall.ValueOrDie());
  ASSERT_TRUE(planner.ok());
  mobility::MobilityGenerator generator(&mall.ValueOrDie(), &planner.ValueOrDie());

  Rng rng(2026);
  std::vector<config::LabeledSegment> training;
  for (int d = 0; d < 6; ++d) {
    auto dev = generator.GenerateDevice("train", 0, &rng);
    ASSERT_TRUE(dev.ok());
    for (const core::MobilitySemantic& s : dev->semantics.semantics) {
      config::LabeledSegment seg;
      seg.event = s.event;
      seg.segment.records = dev->truth.RecordsIn(s.range);
      if (seg.segment.records.size() >= 2) training.push_back(std::move(seg));
    }
  }

  auto subject = generator.GenerateDevice("subject", 0, &rng);
  ASSERT_TRUE(subject.ok());
  positioning::ErrorModelOptions noise;
  noise.floor_count = 2;
  positioning::PositioningSequence raw =
      positioning::ApplyErrorModel(subject->truth, noise, &rng);

  auto session1 = core::Engine::Builder()
                      .BorrowDsm(&mall.ValueOrDie())
                      .SetTrainingData(training)
                      .Build();
  ASSERT_TRUE(session1.ok()) << session1.status().ToString();
  ASSERT_TRUE((*session1)->training_status().ok());
  core::TranslationResult result1 = (*session1)->Translate(raw);

  // Persist: DSM, identifier, raw data, result file.
  ASSERT_TRUE(dsm::SaveToFile(mall.ValueOrDie(), dir_ + "/space.json").ok());
  ASSERT_TRUE((*session1)->classifier().SaveToFile(dir_ + "/identifier.json").ok());
  ASSERT_TRUE(positioning::WriteCsvFile({raw}, dir_ + "/raw.csv").ok());
  ASSERT_TRUE(
      core::WriteResultFile(result1.semantics, dir_ + "/subject.result.json").ok());

  // ---- session 2: reload everything fresh ----
  auto mall2 = dsm::LoadFromFile(dir_ + "/space.json");
  ASSERT_TRUE(mall2.ok());
  auto identifier2 = annotation::EventClassifier::LoadFromFile(dir_ + "/identifier.json");
  ASSERT_TRUE(identifier2.ok()) << identifier2.status().ToString();
  auto raw2 = positioning::ReadCsvFile(dir_ + "/raw.csv");
  ASSERT_TRUE(raw2.ok());
  ASSERT_EQ(raw2->size(), 1u);

  // The DSM survives structurally: same validation outcome, no errors.
  auto issues = dsm::ValidateDsm(mall2.ValueOrDie());
  ASSERT_TRUE(issues.ok());
  for (const dsm::ValidationIssue& issue : *issues) {
    EXPECT_NE(issue.severity, dsm::IssueSeverity::kError);
  }

  // Re-annotate with the reloaded identifier: the annotation-layer output is
  // identical to session 1's (same input, same model, same DSM geometry).
  annotation::Annotator annotator1(&mall.ValueOrDie(), &(*session1)->classifier());
  annotation::Annotator annotator2(&mall2.ValueOrDie(), &identifier2.ValueOrDie());
  cleaning::RawDataCleaner cleaner1(&mall.ValueOrDie(), &(*session1)->planner(),
                                    core::DefaultPipelineCleanerOptions());
  auto planner2 = dsm::RoutePlanner::Build(&mall2.ValueOrDie());
  ASSERT_TRUE(planner2.ok());
  cleaning::RawDataCleaner cleaner2(&mall2.ValueOrDie(), &planner2.ValueOrDie(),
                                    core::DefaultPipelineCleanerOptions());
  core::MobilitySemanticsSequence sem1 = annotator1.Annotate(
      positioning::RecordBlock::FromSequence(cleaner1.Clean(raw)));
  core::MobilitySemanticsSequence sem2 = annotator2.Annotate(
      positioning::RecordBlock::FromSequence(cleaner2.Clean((*raw2)[0])));
  ASSERT_EQ(sem1.Size(), sem2.Size());
  for (size_t i = 0; i < sem1.Size(); ++i) {
    EXPECT_EQ(sem1.semantics[i].event, sem2.semantics[i].event) << i;
    EXPECT_EQ(sem1.semantics[i].region, sem2.semantics[i].region) << i;
  }

  // The stored result file parses back to session 1's final output.
  auto stored = core::ReadResultFile(dir_ + "/subject.result.json");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->Size(), result1.semantics.Size());
}

TEST(IntegrationTest, SpaceModelerToAnalyticsFlow) {
  // Trace a tiny two-shop space, run traffic through the whole pipeline, and
  // check the analytics see the popular shop.
  config::SpaceModeler modeler;
  ASSERT_TRUE(modeler.ImportFloorplan(0, "G", 40, 20).ok());
  auto corridor = modeler.DrawRectangle(dsm::EntityKind::kHallway, "walk", 0, 0, 8,
                                        40, 12);
  ASSERT_TRUE(corridor.ok());
  ASSERT_TRUE(modeler.MarkAsRegion(corridor.ValueOrDie(), "corridor").ok());
  struct Shop {
    const char* name;
    double x0;
  } shops[] = {{"Popular", 2}, {"Quiet", 24}};
  for (const Shop& shop : shops) {
    auto room = modeler.DrawRectangle(dsm::EntityKind::kRoom, shop.name, 0, shop.x0,
                                      12, shop.x0 + 14, 19);
    ASSERT_TRUE(room.ok());
    ASSERT_TRUE(modeler.MarkAsRegion(room.ValueOrDie(), "shop").ok());
    ASSERT_TRUE(modeler
                    .DrawRectangle(dsm::EntityKind::kDoor, "d", 0, shop.x0 + 6,
                                   11.4, shop.x0 + 8, 12.6)
                    .ok());
  }
  auto traced = modeler.BuildDsm("two-shops");
  ASSERT_TRUE(traced.ok());

  // Synthetic semantics: 5 devices stay in Popular, 1 passes Quiet.
  const dsm::SemanticRegion* popular = traced->FindRegionByName("Popular");
  const dsm::SemanticRegion* quiet = traced->FindRegionByName("Quiet");
  ASSERT_NE(popular, nullptr);
  ASSERT_NE(quiet, nullptr);
  core::MobilityAnalytics analytics(&traced.ValueOrDie());
  for (int d = 0; d < 5; ++d) {
    core::MobilitySemanticsSequence seq;
    seq.device_id = "d" + std::to_string(d);
    seq.semantics.push_back(
        {core::kEventStay, popular->id, "Popular", {0, 300'000}, false});
    analytics.AddSequence(seq);
  }
  core::MobilitySemanticsSequence passer;
  passer.device_id = "p";
  passer.semantics.push_back(
      {core::kEventPassBy, quiet->id, "Quiet", {0, 30'000}, false});
  analytics.AddSequence(passer);

  auto top = analytics.TopRegionsByVisits(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].region_name, "Popular");
  EXPECT_DOUBLE_EQ(top[0].conversion_rate, 1.0);

  // Heatmap renders over the traced space.
  std::string svg = viewer::RenderRegionHeatmapSvg(traced.ValueOrDie(), analytics, 0);
  EXPECT_NE(svg.find("Popular"), std::string::npos);
  EXPECT_NE(svg.find("Quiet"), std::string::npos);
}

TEST(IntegrationTest, StreamSessionFeedsStoreAndAnalytics) {
  auto mall = dsm::BuildMallDsm({.floors = 1, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());
  auto planner = dsm::RoutePlanner::Build(&mall.ValueOrDie());
  ASSERT_TRUE(planner.ok());
  mobility::MobilityGenerator generator(&mall.ValueOrDie(), &planner.ValueOrDie());

  // Interleave three devices' records as a single time-ordered feed.
  Rng rng(77);
  std::vector<std::pair<std::string, positioning::RawRecord>> feed;
  for (int d = 0; d < 3; ++d) {
    auto dev = generator.GenerateDevice("s" + std::to_string(d), 0, &rng);
    ASSERT_TRUE(dev.ok());
    for (const positioning::RawRecord& r : dev->truth.records) {
      feed.emplace_back(dev->truth.device_id, r);
    }
  }
  std::stable_sort(feed.begin(), feed.end(), [](const auto& a, const auto& b) {
    return a.second.timestamp < b.second.timestamp;
  });

  // Live ingestion: stream session -> store sink -> analytics over the store.
  auto engine = core::Engine::Builder().BorrowDsm(&mall.ValueOrDie()).Build();
  ASSERT_TRUE(engine.ok());
  core::Service service(engine.ValueOrDie());
  auto stored = store::TripStore::Open();
  ASSERT_TRUE(stored.ok());
  auto stream = service.NewStreamSession();
  stream->SetSink(stored.ValueOrDie()->MakeSink());
  for (const auto& [device, record] : feed) {
    ASSERT_TRUE(stream->Ingest(device, record).ok());
    ASSERT_TRUE(stream->Poll(record.timestamp).ok());
  }
  ASSERT_TRUE(stream->FlushAll().ok());

  core::MobilityAnalytics analytics =
      stored.ValueOrDie()->BuildAnalytics(&mall.ValueOrDie());
  EXPECT_EQ(stored.ValueOrDie()->Stats().devices, 3u);
  EXPECT_EQ(analytics.SequenceCount(), 3u);
  EXPECT_FALSE(analytics.RegionReport().empty());
}

}  // namespace
}  // namespace trips
