#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/result_io.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"

namespace trips::core {
namespace {

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    mall_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(mall_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    generator_ = std::make_unique<mobility::MobilityGenerator>(mall_.get(),
                                                               planner_.get());
  }

  positioning::PositioningSequence MakeNoisy(const std::string& id, uint64_t seed) {
    Rng rng(seed);
    auto dev = generator_->GenerateDevice(id, 0, &rng);
    EXPECT_TRUE(dev.ok());
    positioning::ErrorModelOptions noise;
    noise.floor_count = 2;
    return positioning::ApplyErrorModel(dev->truth, noise, &rng);
  }

  std::vector<config::LabeledSegment> MakeTraining(int devices, uint64_t seed) {
    Rng rng(seed);
    std::vector<config::LabeledSegment> training;
    for (int d = 0; d < devices; ++d) {
      auto dev = generator_->GenerateDevice("train" + std::to_string(d), 0, &rng);
      EXPECT_TRUE(dev.ok());
      for (const MobilitySemantic& s : dev->semantics.semantics) {
        config::LabeledSegment seg;
        seg.event = s.event;
        seg.segment.records = dev->truth.RecordsIn(s.range);
        if (seg.segment.records.size() >= 2) training.push_back(std::move(seg));
      }
    }
    return training;
  }

  std::unique_ptr<dsm::Dsm> mall_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::unique_ptr<mobility::MobilityGenerator> generator_;
};

TEST_F(EngineFixture, BuilderRequiresDsm) {
  auto engine = Engine::Builder().Build();
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineFixture, BorrowedDsmMustHaveTopology) {
  dsm::Dsm raw;  // topology not computed
  auto engine = Engine::Builder().BorrowDsm(&raw).Build();
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, SharedDsmMustHaveTopology) {
  auto raw = std::make_shared<const dsm::Dsm>();  // topology not computed
  auto engine = Engine::Builder().ShareDsm(raw).Build();
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, OwnedDsmGetsTopologyComputed) {
  auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());
  auto engine = Engine::Builder().SetDsm(std::move(mall).ValueOrDie()).Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->dsm().topology_computed());
  EXPECT_GT((*engine)->routing_cache_stats().nodes, 0u);  // planner built
  EXPECT_TRUE((*engine)->training_status().ok());
  EXPECT_FALSE((*engine)->classifier().trained());
}

TEST_F(EngineFixture, LoadDsmFileFailsOnMissingFile) {
  auto engine = Engine::Builder().LoadDsmFile("/nonexistent/dsm.json").Build();
  EXPECT_FALSE(engine.ok());
}

TEST_F(EngineFixture, TrainingIsBestEffort) {
  // Segments for a single pattern cannot train a classifier; the engine still
  // builds, reports the outcome, and keeps the rule-based identifier.
  std::vector<config::LabeledSegment> training = MakeTraining(4, 7);
  std::vector<config::LabeledSegment> one_pattern;
  for (const config::LabeledSegment& seg : training) {
    if (seg.event == kEventStay) one_pattern.push_back(seg);
  }
  ASSERT_FALSE(one_pattern.empty());
  auto engine = Engine::Builder()
                    .BorrowDsm(mall_.get())
                    .SetTrainingData(one_pattern)
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->training_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE((*engine)->classifier().trained());
}

TEST_F(EngineFixture, TrainsEventModelAtBuild) {
  auto engine = Engine::Builder()
                    .BorrowDsm(mall_.get())
                    .SetTrainingData(MakeTraining(6, 9))
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->training_status().ok());
  EXPECT_TRUE((*engine)->classifier().trained());
}

// The two remaining entry points agree: a single-sequence Translate equals a
// one-sequence batch that keeps the baseline knowledge.
TEST_F(EngineFixture, TranslateMatchesOneSequenceBatch) {
  auto engine = Engine::Builder().BorrowDsm(mall_.get()).Build();
  ASSERT_TRUE(engine.ok());
  Service service(*engine);

  positioning::PositioningSequence seq = MakeNoisy("m1", 21);
  TranslationResult via_engine = (*engine)->Translate(seq);
  auto via_batch =
      service.NewBatchSession()->Submit({.sequences = {seq}, .learn_knowledge = false});
  ASSERT_TRUE(via_batch.ok());
  ASSERT_EQ(via_batch->results.size(), 1u);
  const TranslationResult& batched = via_batch->results[0];
  EXPECT_EQ(via_engine.cleaned.records, batched.cleaned.records);
  EXPECT_EQ(SemanticsToJson(via_engine.original_semantics).Dump(),
            SemanticsToJson(batched.original_semantics).Dump());
  EXPECT_EQ(SemanticsToJson(via_engine.semantics).Dump(),
            SemanticsToJson(batched.semantics).Dump());
}

TEST_F(EngineFixture, SharedEngineTranslatesConcurrently) {
  auto built = Engine::Builder()
                   .BorrowDsm(mall_.get())
                   .SetTrainingData(MakeTraining(4, 31))
                   .Build();
  ASSERT_TRUE(built.ok());
  std::shared_ptr<const Engine> engine = *built;

  std::vector<positioning::PositioningSequence> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(MakeNoisy("c" + std::to_string(i), 40 + i));
  }
  // Serial reference.
  std::vector<std::string> expected;
  for (const auto& seq : inputs) {
    expected.push_back(SemanticsToJson(engine->Translate(seq).semantics).Dump());
  }

  // Each thread translates every input through the shared engine.
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& seq : inputs) {
        got[t].push_back(SemanticsToJson(engine->Translate(seq).semantics).Dump());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace trips::core
