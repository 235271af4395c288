#include <gtest/gtest.h>

#include <memory>

#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"

// The Translator of TRIPS (§2): the three layers Cleaning -> Annotation ->
// Complementing, run through the Engine (one sequence) and the Service (a
// batch that learns mobility knowledge).
namespace trips::core {
namespace {

class TranslatorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    generator_ = std::make_unique<mobility::MobilityGenerator>(dsm_.get(),
                                                               planner_.get());
  }

  // Generates a device and degrades it with the default error model.
  mobility::GeneratedDevice MakeNoisyDevice(const std::string& id, uint64_t seed) {
    Rng rng(seed);
    auto dev = generator_->GenerateDevice(id, 0, &rng);
    EXPECT_TRUE(dev.ok());
    mobility::GeneratedDevice out = std::move(dev).ValueOrDie();
    positioning::ErrorModelOptions noise;
    noise.floor_count = 2;
    noise.gaps_per_hour = 1.0;
    truth_by_id_[id] = out.truth;
    out.truth = positioning::ApplyErrorModel(out.truth, noise, &rng);
    return out;
  }

  // An engine over the fixture's mall; fails the test when Build does.
  std::shared_ptr<const Engine> MakeEngine(
      TranslatorOptions options = {},
      std::vector<config::LabeledSegment> training = {}) {
    auto engine = Engine::Builder()
                      .BorrowDsm(dsm_.get())
                      .SetOptions(options)
                      .SetTrainingData(std::move(training))
                      .Build();
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).ValueOrDie();
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::unique_ptr<mobility::MobilityGenerator> generator_;
  std::map<std::string, positioning::PositioningSequence> truth_by_id_;
};

TEST_F(TranslatorFixture, TranslateProducesSemantics) {
  std::shared_ptr<const Engine> engine = MakeEngine();
  mobility::GeneratedDevice dev = MakeNoisyDevice("t1", 11);
  TranslationResult result = engine->Translate(dev.truth);
  EXPECT_EQ(result.raw.records.size(), dev.truth.records.size());
  EXPECT_EQ(result.cleaned.records.size(), dev.truth.records.size());
  EXPECT_FALSE(result.semantics.Empty());
  EXPECT_EQ(result.semantics.device_id, "t1");
  EXPECT_GT(result.cleaning_report.total_records, 0u);
}

TEST_F(TranslatorFixture, TranslateAllBuildsKnowledge) {
  Service service(MakeEngine());
  std::vector<positioning::PositioningSequence> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(MakeNoisyDevice("b" + std::to_string(i), 20 + i).truth);
  }
  std::unique_ptr<BatchSession> session = service.NewBatchSession();
  auto response = session->Submit({.sequences = batch});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->results.size(), 5u);
  // Knowledge was learned from the batch.
  EXPECT_GT(session->knowledge().observed_transitions, 0u);
  for (const TranslationResult& r : response->results) {
    EXPECT_FALSE(r.semantics.Empty());
  }
}

TEST_F(TranslatorFixture, ComplementingFillsGaps) {
  Service service(MakeEngine());
  // Higher gap rate so complementing has work to do.
  std::vector<positioning::PositioningSequence> batch;
  Rng rng(33);
  for (int i = 0; i < 6; ++i) {
    auto dev = generator_->GenerateDevice("g" + std::to_string(i), 0, &rng);
    ASSERT_TRUE(dev.ok());
    positioning::ErrorModelOptions noise;
    noise.floor_count = 2;
    noise.gaps_per_hour = 8.0;
    noise.gap_min = 2 * kMillisPerMinute;
    noise.gap_max = 6 * kMillisPerMinute;
    batch.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
  }
  auto response = service.Translate({.sequences = batch});
  ASSERT_TRUE(response.ok());
  size_t inferred = 0, gaps = 0;
  for (const TranslationResult& r : response->results) {
    gaps += r.complement_report.gaps_found;
    inferred += r.complement_report.triplets_inferred;
    // The complemented sequence is a superset of the original.
    EXPECT_GE(r.semantics.Size(), r.original_semantics.Size());
  }
  EXPECT_GT(gaps, 0u);
  EXPECT_GT(inferred, 0u);
}

TEST_F(TranslatorFixture, AblationFlagsDisableLayers) {
  TranslatorOptions opt;
  opt.enable_cleaning = false;
  opt.enable_complementing = false;
  std::shared_ptr<const Engine> engine = MakeEngine(opt);
  mobility::GeneratedDevice dev = MakeNoisyDevice("a1", 44);
  TranslationResult result = engine->Translate(dev.truth);
  // No cleaning: cleaned == raw.
  ASSERT_EQ(result.cleaned.records.size(), result.raw.records.size());
  for (size_t i = 0; i < result.raw.records.size(); ++i) {
    EXPECT_EQ(result.cleaned.records[i], result.raw.records[i]);
  }
  EXPECT_EQ(result.cleaning_report.speed_violations, 0u);
  // No complementing: semantics == original_semantics.
  EXPECT_EQ(result.semantics.Size(), result.original_semantics.Size());
  EXPECT_EQ(result.complement_report.gaps_found, 0u);
}

TEST_F(TranslatorFixture, TrainedModelImprovesOverUntrained) {
  // Collect training segments from clean ground truth.
  Rng rng(55);
  std::vector<config::LabeledSegment> training;
  for (int d = 0; d < 8; ++d) {
    auto dev = generator_->GenerateDevice("train" + std::to_string(d), 0, &rng);
    ASSERT_TRUE(dev.ok());
    for (const MobilitySemantic& s : dev->semantics.semantics) {
      config::LabeledSegment seg;
      seg.event = s.event;
      seg.segment.records = dev->truth.RecordsIn(s.range);
      if (seg.segment.records.size() >= 2) training.push_back(std::move(seg));
    }
  }

  std::shared_ptr<const Engine> trained = MakeEngine({}, training);
  ASSERT_TRUE(trained->training_status().ok());
  EXPECT_TRUE(trained->classifier().trained());

  std::shared_ptr<const Engine> untrained = MakeEngine();
  EXPECT_FALSE(untrained->classifier().trained());

  // Evaluate both on fresh clean devices.
  double trained_score = 0, untrained_score = 0;
  int evaluated = 0;
  Rng eval_rng(66);
  for (int d = 0; d < 5; ++d) {
    auto dev = generator_->GenerateDevice("eval" + std::to_string(d), 0, &eval_rng);
    ASSERT_TRUE(dev.ok());
    TranslationResult rt = trained->Translate(dev->truth);
    TranslationResult ru = untrained->Translate(dev->truth);
    trained_score += CompareSemantics(dev->semantics, rt.semantics).event_match;
    untrained_score += CompareSemantics(dev->semantics, ru.semantics).event_match;
    ++evaluated;
  }
  trained_score /= evaluated;
  untrained_score /= evaluated;
  // The learned identifier should not lose to the cold-start heuristic.
  EXPECT_GE(trained_score, untrained_score - 0.05)
      << "trained " << trained_score << " vs untrained " << untrained_score;
  EXPECT_GT(trained_score, 0.5);
}

TEST(SemanticsTest, ToStringFormat) {
  MobilitySemantic s{kEventStay, 3, "Adidas", {0, 60'000}, false};
  std::string text = s.ToString();
  EXPECT_NE(text.find("stay"), std::string::npos);
  EXPECT_NE(text.find("Adidas"), std::string::npos);
  EXPECT_NE(text.find("00:00:00-00:01:00"), std::string::npos);
  MobilitySemantic inferred = s;
  inferred.inferred = true;
  EXPECT_NE(inferred.ToString().find("inferred"), std::string::npos);
}

TEST(SemanticsTest, SequenceHelpers) {
  MobilitySemanticsSequence seq;
  seq.device_id = "d";
  seq.semantics.push_back({kEventStay, 0, "A", {10'000, 20'000}, false});
  seq.semantics.push_back({kEventPassBy, 1, "B", {25'000, 30'000}, false});
  EXPECT_EQ(seq.Span().begin, 10'000);
  EXPECT_EQ(seq.Span().end, 30'000);
  EXPECT_EQ(seq.CoveredDuration(), 15'000);
  ASSERT_NE(seq.At(15'000), nullptr);
  EXPECT_EQ(seq.At(15'000)->region_name, "A");
  EXPECT_EQ(seq.At(22'000), nullptr);  // in the gap
  EXPECT_NE(seq.ToString().find("d:"), std::string::npos);
}

TEST(SemanticsTest, CompareSemanticsMetric) {
  MobilitySemanticsSequence truth;
  truth.semantics.push_back({kEventStay, 0, "A", {0, 100'000}, false});
  // Perfect prediction.
  EXPECT_DOUBLE_EQ(CompareSemantics(truth, truth).full_match, 1.0);
  // Right region, wrong event.
  MobilitySemanticsSequence wrong_event = truth;
  wrong_event.semantics[0].event = kEventPassBy;
  SemanticsAgreement a = CompareSemantics(truth, wrong_event);
  EXPECT_DOUBLE_EQ(a.region_match, 1.0);
  EXPECT_DOUBLE_EQ(a.event_match, 0.0);
  EXPECT_DOUBLE_EQ(a.full_match, 0.0);
  // Empty prediction scores zero but evaluates the full span.
  SemanticsAgreement empty = CompareSemantics(truth, MobilitySemanticsSequence{});
  EXPECT_DOUBLE_EQ(empty.full_match, 0.0);
  EXPECT_GT(empty.evaluated, 0);
  // Empty truth evaluates nothing.
  EXPECT_EQ(CompareSemantics(MobilitySemanticsSequence{}, truth).evaluated, 0);
}

}  // namespace
}  // namespace trips::core
