// Parity suite of the vectorized cleaning kernels: the mask-column scan, the
// per-run smoothing sweeps and the cell-sorted batched snap must stay
// byte-identical to the AoS reference cleaner (tests/testing/
// reference_cleaner.h) — on randomized walks, on every degenerate block shape
// (empty / single record / all invalid / all co-timestamped / runs shorter
// than the smoothing window), and across 0/1/7 pool workers. Also covers
// Dsm::SnapIfOutsideBatch against the per-point query on both the indexed and
// brute-force dispatch, and the per-pass clean.* stage metrics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cleaning/cleaner.h"
#include "dsm/sample_spaces.h"
#include "obs/metrics.h"
#include "positioning/error_model.h"
#include "positioning/record_block.h"
#include "testing/reference_cleaner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace trips {
namespace {

using cleaning::CleanerOptions;
using cleaning::CleanerScratch;
using cleaning::CleaningReport;
using cleaning::CleaningStageMetrics;
using cleaning::RawDataCleaner;
using cleaning::testing::ReferenceCleaner;
using positioning::PositioningSequence;
using positioning::RecordBlock;

void ExpectSameRecords(const PositioningSequence& a, const PositioningSequence& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
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

class CleaningVectorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 3, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
  }

  // Noisy corridor walk — the randomized parity input (outliers, floor
  // errors, jitter), as in record_block_test.cc.
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

  // CleanBlock with `workers` pool workers; returns the cleaned sequence.
  PositioningSequence CleanWith(const PositioningSequence& raw, CleanerOptions opt,
                                size_t workers, CleaningReport* report) const {
    // Degenerate blocks are short — make sure worker parity actually
    // exercises the pool on them too.
    opt.parallel_min_records = 2;
    RawDataCleaner cleaner(dsm_.get(), planner_.get(), opt);
    RecordBlock block = RecordBlock::FromSequence(raw);
    CleanerScratch scratch;
    if (workers == 0) {
      cleaner.CleanBlock(&block, &scratch, report);
    } else {
      util::ThreadPool pool(workers);
      cleaner.CleanBlock(&block, &scratch, report, &pool);
    }
    return block.ToSequence();
  }

  // The parity matrix for one input: {0,1,7} workers, all byte-identical to
  // the reference cleaner.
  void ExpectParity(const PositioningSequence& raw, const CleanerOptions& opt) const {
    CleaningReport want_report;
    PositioningSequence want =
        ReferenceCleaner(dsm_.get(), planner_.get(), opt).Clean(raw, &want_report);
    for (size_t workers : {size_t{0}, size_t{1}, size_t{7}}) {
      CleaningReport report;
      PositioningSequence got = CleanWith(raw, opt, workers, &report);
      SCOPED_TRACE(::testing::Message() << "workers=" << workers);
      ExpectSameRecords(got, want);
      ExpectSameReports(report, want_report);
    }
  }

  static CleanerOptions SmoothedOptions() {
    CleanerOptions opt;
    opt.smoothing_window = 3;
    return opt;
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
};

TEST_F(CleaningVectorFixture, RandomizedWalksMatchReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    ExpectParity(NoisyWalk(400, seed), SmoothedOptions());
  }
}

TEST_F(CleaningVectorFixture, WideSmoothingWindowMatchesReference) {
  CleanerOptions opt;
  opt.smoothing_window = 9;  // windows span floor-run boundaries
  ExpectParity(NoisyWalk(300, 17), opt);
}

TEST_F(CleaningVectorFixture, EmptyBlock) {
  PositioningSequence empty;
  empty.device_id = "empty";
  ExpectParity(empty, SmoothedOptions());
}

TEST_F(CleaningVectorFixture, SingleRecord) {
  PositioningSequence one;
  one.device_id = "single";
  one.records.emplace_back(500.0, 500.0, 9, TimestampMs{1000});  // unwalkable
  ExpectParity(one, SmoothedOptions());
}

TEST_F(CleaningVectorFixture, AllRecordsInvalid) {
  // Alternating ±40 m jumps at 1 s: every adjacent pair violates the speed
  // constraint, the anchor seed scan gives up after 8 records, and the whole
  // block interpolates from the one surviving anchor.
  PositioningSequence seq;
  seq.device_id = "teleporter";
  for (int i = 0; i < 64; ++i) {
    seq.records.emplace_back(i % 2 == 0 ? 10.0 : 90.0, 30.0, 0,
                             static_cast<TimestampMs>(i) * 1000);
  }
  ExpectParity(seq, SmoothedOptions());
}

TEST_F(CleaningVectorFixture, AllCoTimestamped) {
  // dt == 0 everywhere: no speed signal, so pass 1 accepts everything; the
  // scattered points still exercise smoothing and the batched snap.
  Rng rng(23);
  PositioningSequence seq;
  seq.device_id = "burst";
  for (int i = 0; i < 128; ++i) {
    seq.records.emplace_back(rng.Uniform(-20, 120), rng.Uniform(-20, 80),
                             i % 2, TimestampMs{5000});
  }
  ExpectParity(seq, SmoothedOptions());
}

TEST_F(CleaningVectorFixture, RunsShorterThanSmoothingWindow) {
  // Floor flips every 2 records with a 7-wide window: no run ever reaches the
  // sweep kernel's interior, so the whole pass must take the per-record
  // boundary window — and still match.
  PositioningSequence seq;
  seq.device_id = "flipper";
  for (int i = 0; i < 40; ++i) {
    seq.records.emplace_back(5.0 + i * 0.5, 30.0, (i / 2) % 2,
                             static_cast<TimestampMs>(i) * 3000);
  }
  CleanerOptions opt;
  opt.smoothing_window = 7;
  ExpectParity(seq, opt);
}

TEST_F(CleaningVectorFixture, SnapBatchMatchesPerPointOnBothDispatches) {
  Rng rng(7);
  std::vector<geo::IndoorPoint> points;
  for (int i = 0; i < 512; ++i) {
    // Mix of inside, near-outside, far-outside (where the batch path's
    // seeded/pruned ring search diverges most from the reference's ring-0
    // scan) and unknown-floor points.
    geo::FloorId floor = i % 8 == 0 ? geo::FloorId{77} : geo::FloorId(i % 3);
    double spread = i % 3 == 0 ? 200.0 : 30.0;
    points.push_back({{rng.Uniform(-spread, 100 + spread),
                       rng.Uniform(-spread, 60 + spread)},
                      floor});
  }
  for (bool use_index : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "use_index=" << use_index);
    dsm_->set_spatial_index_enabled(use_index);
    std::vector<geo::IndoorPoint> batch_out(points.size());
    std::vector<uint8_t> batch_snapped(points.size());
    dsm_->SnapIfOutsideBatch(points, batch_out, batch_snapped);
    for (size_t i = 0; i < points.size(); ++i) {
      bool snapped = false;
      geo::IndoorPoint want = dsm_->SnapIfOutside(points[i], &snapped);
      EXPECT_EQ(batch_out[i], want) << "point " << i;
      EXPECT_EQ(batch_snapped[i], snapped ? 1 : 0) << "point " << i;
    }
    // Empty batch is a no-op.
    dsm_->SnapIfOutsideBatch({}, {}, {});
  }
  dsm_->set_spatial_index_enabled(true);
}

TEST_F(CleaningVectorFixture, StageMetricsRecordPerPass) {
  obs::MetricsRegistry registry;
  CleaningStageMetrics stages;
  stages.scan_ns = registry.histogram("clean.scan_ns");
  stages.interpolate_ns = registry.histogram("clean.interpolate_ns");
  stages.smooth_ns = registry.histogram("clean.smooth_ns");
  stages.snap_ns = registry.histogram("clean.snap_ns");

  RawDataCleaner cleaner(dsm_.get(), planner_.get(), SmoothedOptions());
  PositioningSequence raw = NoisyWalk(300, 5);

  // Metrics off: baseline output.
  RecordBlock plain = RecordBlock::FromSequence(raw);
  CleaningReport plain_report;
  CleanerScratch scratch;
  cleaner.CleanBlock(&plain, &scratch, &plain_report);

  // Metrics on: every pass records once per block, output unchanged.
  RecordBlock timed = RecordBlock::FromSequence(raw);
  CleaningReport timed_report;
  cleaner.CleanBlock(&timed, &scratch, &timed_report, nullptr, &stages);
  auto snap = registry.Snap();
  ASSERT_EQ(snap.histograms.size(), 4u);
  for (const auto& [name, summary] : snap.histograms) {
    EXPECT_EQ(summary.count, 1u) << name;
  }
  ExpectSameRecords(timed.ToSequence(), plain.ToSequence());
  ExpectSameReports(timed_report, plain_report);
}

}  // namespace
}  // namespace trips
