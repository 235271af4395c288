// Parity suite of the columnar record pipeline: SoA==AoS byte-identity for
// conversions, cleaning and full Service output; determinism of parallel
// intra-sequence cleaning across worker counts; SnapIfOutside vs the
// IsWalkable + SnapToWalkable pair it replaces.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cleaning/cleaner.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "positioning/error_model.h"
#include "positioning/record_block.h"
#include "testing/reference_cleaner.h"
#include "testing/reference_translator.h"
#include "util/rng.h"

namespace trips {
namespace {

using cleaning::CleanerOptions;
using cleaning::CleanerScratch;
using cleaning::CleaningReport;
using cleaning::RawDataCleaner;
using cleaning::testing::ReferenceCleaner;
using positioning::PositioningSequence;
using positioning::RawRecord;
using positioning::RecordBlock;

void ExpectSameRecords(const PositioningSequence& a, const PositioningSequence& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.device_id, b.device_id);
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i], b.records[i]) << "record " << i;
  }
}

void ExpectSameReports(const CleaningReport& a, const CleaningReport& b) {
  EXPECT_EQ(a.total_records, b.total_records);
  EXPECT_EQ(a.speed_violations, b.speed_violations);
  EXPECT_EQ(a.floor_corrected, b.floor_corrected);
  EXPECT_EQ(a.interpolated, b.interpolated);
  EXPECT_EQ(a.snapped, b.snapped);
  EXPECT_EQ(a.smoothed, b.smoothed);
}

class RecordBlockFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 3, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
  }

  // A corridor walk at ~1 m/s degraded with the error model: the randomized
  // input of the parity checks (outliers, floor errors, jitter).
  PositioningSequence NoisyWalk(int n, uint64_t seed) const {
    PositioningSequence truth;
    truth.device_id = "walker-" + std::to_string(seed);
    double x = 5.0;
    double dir = 3.0;
    for (int i = 0; i < n; ++i) {
      truth.records.emplace_back(x, 30.0, 0, static_cast<TimestampMs>(i) * 3000);
      if (x + dir > 95.0 || x + dir < 5.0) dir = -dir;
      x += dir;
    }
    positioning::ErrorModelOptions noise;
    noise.xy_noise_sigma = 1.0;
    noise.floor_error_rate = 0.08;
    noise.outlier_rate = 0.05;
    noise.outlier_range = 30;
    noise.dropout_rate = 0;
    noise.gaps_per_hour = 0;
    noise.floor_count = 3;
    Rng rng(seed);
    return positioning::ApplyErrorModel(truth, noise, &rng);
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
};

TEST_F(RecordBlockFixture, ConversionRoundTripIsExact) {
  PositioningSequence seq = NoisyWalk(200, 3);
  RecordBlock block = RecordBlock::FromSequence(seq);
  ASSERT_EQ(block.Size(), seq.records.size());
  for (size_t i = 0; i < block.Size(); ++i) {
    EXPECT_TRUE(block.IsValid(i));
    EXPECT_EQ(block.Record(i), seq.records[i]);
  }
  ExpectSameRecords(block.ToSequence(), seq);

  // Buffer-reusing refill from a different (smaller) sequence.
  PositioningSequence shorter = NoisyWalk(50, 4);
  block.AssignFrom(shorter);
  ExpectSameRecords(block.ToSequence(), shorter);
}

TEST_F(RecordBlockFixture, SortByTimeMatchesAoSSort) {
  Rng rng(11);
  PositioningSequence seq;
  seq.device_id = "shuffled";
  // Duplicate timestamps force the stable tie-break to matter.
  for (int i = 0; i < 500; ++i) {
    seq.records.emplace_back(rng.Uniform(0, 100), rng.Uniform(0, 60), 0,
                             static_cast<TimestampMs>(rng.UniformInt(0, 99)) * 1000);
  }
  RecordBlock block = RecordBlock::FromSequence(seq);
  block.SortByTime();
  PositioningSequence sorted = seq;
  sorted.SortByTime();
  ExpectSameRecords(block.ToSequence(), sorted);
}

TEST_F(RecordBlockFixture, ValidityBitmapTracksMarks) {
  RecordBlock block;
  for (int i = 0; i < 130; ++i) block.Append(1.0, 2.0, 0, i);
  EXPECT_EQ(block.InvalidCount(), 0u);
  block.SetValid(0, false);
  block.SetValid(64, false);
  block.SetValid(129, false);
  EXPECT_EQ(block.InvalidCount(), 3u);
  EXPECT_FALSE(block.IsValid(64));
  EXPECT_TRUE(block.IsValid(65));
  block.MarkAllValid();
  EXPECT_EQ(block.InvalidCount(), 0u);
}

TEST_F(RecordBlockFixture, CleanShimMatchesReferenceRandomized) {
  CleanerOptions opt;
  opt.smoothing_window = 3;
  RawDataCleaner cleaner(dsm_.get(), planner_.get(), opt);
  ReferenceCleaner reference(dsm_.get(), planner_.get(), opt);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PositioningSequence raw = NoisyWalk(300, seed);
    CleaningReport ref_report, soa_report;
    PositioningSequence ref = reference.Clean(raw, &ref_report);
    PositioningSequence soa = cleaner.Clean(raw, &soa_report);
    ExpectSameRecords(soa, ref);
    ExpectSameReports(soa_report, ref_report);
  }
}

TEST_F(RecordBlockFixture, CleanShimMatchesReferenceWithoutSmoothingOrSnap) {
  CleanerOptions opt;
  opt.snap_to_walkable = false;
  RawDataCleaner cleaner(dsm_.get(), planner_.get(), opt);
  PositioningSequence raw = NoisyWalk(250, 21);
  CleaningReport ref_report, soa_report;
  ExpectSameRecords(cleaner.Clean(raw, &soa_report),
                    ReferenceCleaner(dsm_.get(), planner_.get(), opt).Clean(raw, &ref_report));
  ExpectSameReports(soa_report, ref_report);
}

TEST_F(RecordBlockFixture, ParallelCleaningIsWorkerCountIndependent) {
  CleanerOptions opt;
  opt.smoothing_window = 3;
  opt.parallel_min_records = 64;  // force the parallel path on a short test input
  RawDataCleaner cleaner(dsm_.get(), planner_.get(), opt);
  PositioningSequence raw = NoisyWalk(2000, 7);

  CleaningReport serial_report;
  PositioningSequence serial =
      ReferenceCleaner(dsm_.get(), planner_.get(), opt).Clean(raw, &serial_report);

  for (size_t workers : {0u, 1u, 7u}) {
    util::ThreadPool pool(workers);
    RecordBlock block = RecordBlock::FromSequence(raw);
    CleanerScratch scratch;
    CleaningReport report;
    cleaner.CleanBlock(&block, &scratch, &report, &pool);
    ExpectSameRecords(block.ToSequence(), serial);
    ExpectSameReports(report, serial_report);
  }
}

TEST_F(RecordBlockFixture, ScratchReuseAcrossSequencesIsClean) {
  RawDataCleaner cleaner(dsm_.get(), planner_.get(),
                         {.smoothing_window = 3});
  CleanerScratch scratch;
  for (uint64_t seed = 30; seed < 34; ++seed) {
    PositioningSequence raw = NoisyWalk(150 + 40 * static_cast<int>(seed % 3), seed);
    RecordBlock reused = RecordBlock::FromSequence(raw);
    CleaningReport reused_report;
    cleaner.CleanBlock(&reused, &scratch, &reused_report);

    RecordBlock fresh = RecordBlock::FromSequence(raw);
    CleanerScratch fresh_scratch;
    CleaningReport fresh_report;
    cleaner.CleanBlock(&fresh, &fresh_scratch, &fresh_report);

    ExpectSameRecords(reused.ToSequence(), fresh.ToSequence());
    ExpectSameReports(reused_report, fresh_report);
  }
}

TEST_F(RecordBlockFixture, SnapIfOutsideMatchesPairedCalls) {
  Rng rng(5);
  for (bool use_index : {true, false}) {
    dsm_->set_spatial_index_enabled(use_index);
    for (int i = 0; i < 400; ++i) {
      geo::IndoorPoint p{rng.Uniform(-5, 115), rng.Uniform(-5, 70),
                         static_cast<geo::FloorId>(rng.UniformInt(0, 2))};
      bool walkable = dsm_->IsWalkable(p);
      geo::IndoorPoint paired = walkable ? p : dsm_->SnapToWalkable(p);
      bool snapped = false;
      geo::IndoorPoint combined = dsm_->SnapIfOutside(p, &snapped);
      EXPECT_EQ(snapped, !walkable) << p.ToString();
      EXPECT_EQ(combined, paired) << p.ToString();
    }
  }
  dsm_->set_spatial_index_enabled(true);
}

// Full-pipeline byte-identity: the Service's batch output must not depend on
// the worker count (inter-sequence fan-out AND intra-sequence parallel
// cleaning), and must equal the serial core::testing::ReferenceTranslateAll.
TEST_F(RecordBlockFixture, ServiceOutputIdenticalAcrossWorkerCounts) {
  auto mall = dsm::BuildMallDsm({.floors = 3, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());

  std::vector<PositioningSequence> fleet;
  for (uint64_t seed = 40; seed < 46; ++seed) {
    fleet.push_back(NoisyWalk(300, seed));
  }

  core::TranslatorOptions options;
  options.cleaner.parallel_min_records = 64;  // exercise intra-sequence fan-out

  auto engine = core::Engine::Builder()
                    .SetDsm(std::move(mall).ValueOrDie())
                    .SetOptions(options)
                    .Build();
  ASSERT_TRUE(engine.ok());

  std::vector<core::TranslationResult> baseline;
  for (size_t workers : {0u, 1u, 4u}) {
    core::Service service(engine.ValueOrDie(), {.worker_threads = workers});
    auto response = service.Translate({.sequences = fleet});
    ASSERT_TRUE(response.ok());
    std::vector<core::TranslationResult> results =
        std::move(response).ValueOrDie().results;
    if (baseline.empty()) {
      baseline = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectSameRecords(results[i].raw, baseline[i].raw);
      ExpectSameRecords(results[i].cleaned, baseline[i].cleaned);
      EXPECT_EQ(results[i].original_semantics.semantics,
                baseline[i].original_semantics.semantics);
      EXPECT_EQ(results[i].semantics.semantics, baseline[i].semantics.semantics);
    }
  }

  // The serial batch reference (same engine) must agree.
  std::vector<core::TranslationResult> legacy =
      core::testing::ReferenceTranslateAll(*engine.ValueOrDie(), fleet);
  std::stable_sort(legacy.begin(), legacy.end(),
                   [](const core::TranslationResult& a,
                      const core::TranslationResult& b) {
                     return a.semantics.device_id < b.semantics.device_id;
                   });
  ASSERT_EQ(legacy.size(), baseline.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    ExpectSameRecords(legacy[i].cleaned, baseline[i].cleaned);
    EXPECT_EQ(legacy[i].semantics.semantics, baseline[i].semantics.semantics);
  }
}

// Streaming path: engine-backed sessions feed buffered columns straight into
// the block pipeline; their output must equal translating the same records
// through the AoS Translate entry point.
TEST_F(RecordBlockFixture, StreamSessionMatchesDirectTranslation) {
  auto mall = dsm::BuildMallDsm({.floors = 3, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());
  auto engine =
      core::Engine::Builder().SetDsm(std::move(mall).ValueOrDie()).Build();
  ASSERT_TRUE(engine.ok());
  core::Service service(engine.ValueOrDie(), {.worker_threads = 2});

  PositioningSequence walk = NoisyWalk(200, 50);
  auto stream = service.NewStreamSession();
  for (const RawRecord& r : walk.records) {
    ASSERT_TRUE(stream->Ingest(walk.device_id, r).ok());
  }
  auto flushed = stream->FlushAll();
  ASSERT_TRUE(flushed.ok());
  ASSERT_EQ(flushed.ValueOrDie().size(), 1u);
  const core::TranslationResult& streamed = flushed.ValueOrDie()[0];

  core::TranslationResult direct = engine.ValueOrDie()->Translate(walk);
  ExpectSameRecords(streamed.raw, direct.raw);
  ExpectSameRecords(streamed.cleaned, direct.cleaned);
  EXPECT_EQ(streamed.semantics.semantics, direct.semantics.semantics);
}

}  // namespace
}  // namespace trips
