#include <gtest/gtest.h>

#include "annotation/features.h"
#include "util/rng.h"

namespace trips::annotation {
namespace {

using positioning::RecordBlock;

// Features of a whole block.
FeatureVector Features(const RecordBlock& block) {
  return ExtractFeatures(block, 0, block.Size());
}

RecordBlock StraightWalk(int n, double speed_mps, DurationMs step_ms) {
  RecordBlock seq;
  double step_m = speed_mps * step_ms / 1000.0;
  for (int i = 0; i < n; ++i) {
    seq.Append(i * step_m, 0.0, 0, static_cast<TimestampMs>(i) * step_ms);
  }
  return seq;
}

RecordBlock Stationary(int n, double jitter, uint64_t seed = 1) {
  RecordBlock seq;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    seq.Append(10 + rng.Gaussian(0, jitter), 5 + rng.Gaussian(0, jitter),
                             0, static_cast<TimestampMs>(i) * 3000);
  }
  return seq;
}

TEST(FeaturesTest, NamesMatchCount) {
  EXPECT_EQ(FeatureNames().size(), static_cast<size_t>(kFeatureCount));
}

TEST(FeaturesTest, EmptyAndSingleton) {
  RecordBlock empty;
  FeatureVector f = Features(empty);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0);

  RecordBlock one;
  one.Append(1, 2, 0, 0);
  f = Features(one);
  EXPECT_DOUBLE_EQ(f[kRecordCount], 1);
  EXPECT_DOUBLE_EQ(f[kDurationS], 0);
}

TEST(FeaturesTest, StraightWalkFeatures) {
  // 1.5 m/s for 30 steps of 2 s.
  FeatureVector f = Features(StraightWalk(31, 1.5, 2000));
  EXPECT_DOUBLE_EQ(f[kRecordCount], 31);
  EXPECT_DOUBLE_EQ(f[kDurationS], 60);
  EXPECT_NEAR(f[kTravelDistance], 90, 1e-9);
  EXPECT_NEAR(f[kNetDisplacement], 90, 1e-9);
  EXPECT_NEAR(f[kMeanSpeed], 1.5, 1e-9);
  EXPECT_NEAR(f[kMaxStepSpeed], 1.5, 1e-9);
  EXPECT_NEAR(f[kStraightness], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(f[kTurnCount], 0);
  EXPECT_DOUBLE_EQ(f[kStopFraction], 0);
  EXPECT_DOUBLE_EQ(f[kFloorChanges], 0);
  EXPECT_NEAR(f[kCoveringRange], 90, 1e-9);
}

TEST(FeaturesTest, StationaryFeatures) {
  FeatureVector f = Features(Stationary(40, 0.3));
  EXPECT_LT(f[kMeanSpeed], 0.3);
  EXPECT_LT(f[kCoveringRange], 4.0);
  EXPECT_LT(f[kLocationVariance], 1.0);
  EXPECT_LT(f[kStraightness], 0.5);
  EXPECT_GT(f[kStopFraction], 0.3);
}

TEST(FeaturesTest, StationaryVsWalkSeparable) {
  FeatureVector walk = Features(StraightWalk(40, 1.4, 3000));
  FeatureVector stay = Features(Stationary(40, 0.3, 2));
  EXPECT_GT(walk[kMeanSpeed], stay[kMeanSpeed] * 3);
  EXPECT_GT(walk[kCoveringRange], stay[kCoveringRange] * 5);
  EXPECT_GT(walk[kStraightness], stay[kStraightness]);
}

TEST(FeaturesTest, TurnsCounted) {
  // A zig-zag path: right, up, right, up...
  RecordBlock zig;
  double x = 0, y = 0;
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      x += 3;
    } else {
      y += 3;
    }
    zig.Append(x, y, 0, static_cast<TimestampMs>(i) * 3000);
  }
  FeatureVector f = Features(zig);
  EXPECT_GE(f[kTurnCount], 15);  // turn at almost every step
  EXPECT_GT(f[kTurnRate], 10);   // turns per minute
  EXPECT_LT(f[kStraightness], 0.9);
}

TEST(FeaturesTest, FloorChangesCounted) {
  RecordBlock seq;
  for (int i = 0; i < 10; ++i) {
    seq.Append(0, 0, i < 5 ? 0 : 1, static_cast<TimestampMs>(i) * 3000);
  }
  FeatureVector f = Features(seq);
  EXPECT_DOUBLE_EQ(f[kFloorChanges], 1);
}

TEST(FeaturesTest, SubrangeExtraction) {
  RecordBlock seq = StraightWalk(30, 1.0, 1000);
  FeatureVector f = ExtractFeatures(seq, 10, 20);
  EXPECT_DOUBLE_EQ(f[kRecordCount], 10);
  EXPECT_DOUBLE_EQ(f[kDurationS], 9);
  EXPECT_NEAR(f[kTravelDistance], 9, 1e-9);
  // Out-of-range end clamps.
  FeatureVector tail = ExtractFeatures(seq, 25, 100);
  EXPECT_DOUBLE_EQ(tail[kRecordCount], 5);
  // Inverted range yields zeros.
  FeatureVector none = ExtractFeatures(seq, 20, 10);
  EXPECT_DOUBLE_EQ(none[kRecordCount], 0);
}

TEST(FeaturesTest, CoTimestampedRecordsNoInfiniteSpeed) {
  RecordBlock seq;
  seq.Append(0, 0, 0, 1000);
  seq.Append(5, 0, 0, 1000);  // same timestamp
  seq.Append(6, 0, 0, 2000);
  FeatureVector f = Features(seq);
  EXPECT_TRUE(std::isfinite(f[kMeanSpeed]));
  EXPECT_TRUE(std::isfinite(f[kMaxStepSpeed]));
}

}  // namespace
}  // namespace trips::annotation
