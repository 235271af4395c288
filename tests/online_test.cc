#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/session.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"

// Online (record-at-a-time) translation through a StreamSession: the buffer
// cap, the end-of-stream drain of short tails and stream == batch.
namespace trips::core {
namespace {

class OnlineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto engine = Engine::Builder().BorrowDsm(dsm_.get()).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = *engine;

    auto planner = dsm::RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    generator_ = std::make_unique<mobility::MobilityGenerator>(dsm_.get(),
                                                               planner_.get());
  }

  positioning::PositioningSequence GenerateTruth(const std::string& id,
                                                 uint64_t seed) {
    Rng rng(seed);
    auto dev = generator_->GenerateDevice(id, 0, &rng);
    EXPECT_TRUE(dev.ok());
    return std::move(dev).ValueOrDie().truth;
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  std::shared_ptr<const Engine> engine_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::unique_ptr<mobility::MobilityGenerator> generator_;
};

TEST_F(OnlineFixture, BufferCapForcesFlush) {
  StreamOptions opt;
  opt.max_buffer_records = 50;
  StreamSession online(engine_, opt);
  positioning::PositioningSequence seq = GenerateTruth("cap", 4);
  ASSERT_GT(seq.records.size(), 60u);

  bool force_flushed = false;
  for (size_t i = 0; i < 60; ++i) {
    auto flushed = online.Ingest("cap", seq.records[i]);
    ASSERT_TRUE(flushed.ok());
    if (!flushed->empty()) {
      force_flushed = true;
      EXPECT_EQ((*flushed)[0].raw.records.size(), 50u);
    }
  }
  EXPECT_TRUE(force_flushed);
}

TEST_F(OnlineFixture, TinyBuffersTranslatedAtFinalFlush) {
  StreamSession online(engine_);
  // Two stray fixes only — below min_flush_records, but FlushAll is the end
  // of the stream, so the remainder is translated rather than lost.
  ASSERT_TRUE(online.Ingest("stray", {50, 30, 0, 1000}).ok());
  ASSERT_TRUE(online.Ingest("stray", {50, 31, 0, 4000}).ok());
  auto results = online.FlushAll();
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].raw.records.size(), 2u);
  EXPECT_EQ(online.EmittedCount(), 1u);
  EXPECT_EQ(online.PendingDevices(), 0u);
}

TEST_F(OnlineFixture, OnlineMatchesBatchTranslation) {
  positioning::PositioningSequence seq = GenerateTruth("same", 5);
  // Batch.
  TranslationResult batch = engine_->Translate(seq);
  // Online, fed record by record.
  StreamSession online(engine_);
  for (const auto& r : seq.records) {
    ASSERT_TRUE(online.Ingest("same", r).ok());
  }
  auto streamed = online.FlushAll();
  ASSERT_TRUE(streamed.ok());
  ASSERT_EQ(streamed->size(), 1u);
  // Identical input, identical engine state => identical semantics.
  ASSERT_EQ((*streamed)[0].semantics.Size(), batch.semantics.Size());
  for (size_t i = 0; i < batch.semantics.Size(); ++i) {
    EXPECT_EQ((*streamed)[0].semantics.semantics[i], batch.semantics.semantics[i]);
  }
}

}  // namespace
}  // namespace trips::core
