#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>

#include "annotation/splitter.h"
#include "positioning/record_block.h"
#include "testing/reference_splitter.h"
#include "util/rng.h"

namespace trips::annotation {
namespace {

using positioning::RecordBlock;

// Builds: walk (n_walk steps of 3 m/3 s) -> dwell (n_dwell samples jittering
// around a point) -> walk again.
RecordBlock WalkDwellWalk(int n_walk, int n_dwell, uint64_t seed = 1) {
  RecordBlock block;
  block.device_id = "d";
  Rng rng(seed);
  TimestampMs t = 0;
  double x = 0;
  for (int i = 0; i < n_walk; ++i, t += 3000, x += 3.0) {
    block.Append(x, 0.0, 0, t);
  }
  for (int i = 0; i < n_dwell; ++i, t += 3000) {
    block.Append(x + rng.Gaussian(0, 0.4), rng.Gaussian(0, 0.4), 0, t);
  }
  for (int i = 0; i < n_walk; ++i, t += 3000, x += 3.0) {
    block.Append(x, 0.0, 0, t);
  }
  return block;
}

TEST(SplitterTest, EmptyAndTinySequences) {
  RecordBlock empty;
  EXPECT_TRUE(SplitSequence(empty).empty());
  RecordBlock one;
  one.Append(0, 0, 0, 0);
  EXPECT_TRUE(SplitSequence(one).empty());
}

TEST(SplitterTest, SnippetsPartitionTheSequence) {
  RecordBlock block = WalkDwellWalk(15, 30);
  std::vector<Snippet> snippets = SplitSequence(block);
  ASSERT_FALSE(snippets.empty());
  EXPECT_EQ(snippets.front().begin, 0u);
  EXPECT_EQ(snippets.back().end, block.Size());
  for (size_t i = 1; i < snippets.size(); ++i) {
    EXPECT_EQ(snippets[i].begin, snippets[i - 1].end);
  }
}

TEST(SplitterTest, DwellBecomesDenseSnippet) {
  RecordBlock block = WalkDwellWalk(15, 40);
  std::vector<Snippet> snippets = SplitSequence(block);
  // Expect at least one dense snippet covering most of the dwell.
  bool found_dense = false;
  for (const Snippet& s : snippets) {
    if (s.dense && s.Size() >= 25) found_dense = true;
  }
  EXPECT_TRUE(found_dense);
  // And non-dense walking snippets on at least one side.
  bool found_move = false;
  for (const Snippet& s : snippets) {
    if (!s.dense && s.Size() >= 5) found_move = true;
  }
  EXPECT_TRUE(found_move);
}

TEST(SplitterTest, PureWalkYieldsNoDenseCluster) {
  RecordBlock block;
  for (int i = 0; i < 60; ++i) {
    block.Append(i * 3.0, 0.0, 0, static_cast<TimestampMs>(i) * 3000);
  }
  std::vector<Snippet> snippets =
      SplitSequence(block, {.eps_space = 3.0,
                          .eps_time = 90 * kMillisPerSecond,
                          .min_pts = 4,
                          .min_snippet = 0});
  for (const Snippet& s : snippets) {
    EXPECT_FALSE(s.dense && s.Size() > 10) << "unexpected dense run of " << s.Size();
  }
}

TEST(SplitterTest, PureDwellYieldsOneDenseCluster) {
  RecordBlock block = WalkDwellWalk(0, 50);
  std::vector<Snippet> snippets = SplitSequence(block);
  ASSERT_EQ(snippets.size(), 1u);
  EXPECT_TRUE(snippets[0].dense);
  EXPECT_EQ(snippets[0].Size(), 50u);
}

TEST(SplitterTest, TwoSeparatedDwellsSplit) {
  // dwell A -> walk -> dwell B (far away).
  RecordBlock block;
  Rng rng(3);
  TimestampMs t = 0;
  for (int i = 0; i < 30; ++i, t += 3000) {
    block.Append(rng.Gaussian(0, 0.3), rng.Gaussian(0, 0.3), 0, t);
  }
  double x = 0;
  for (int i = 0; i < 20; ++i, t += 3000) {
    x += 3.0;
    block.Append(x, 0.0, 0, t);
  }
  for (int i = 0; i < 30; ++i, t += 3000) {
    block.Append(x + rng.Gaussian(0, 0.3), rng.Gaussian(0, 0.3), 0, t);
  }
  std::vector<Snippet> snippets = SplitSequence(block);
  int dense_count = 0;
  for (const Snippet& s : snippets) {
    if (s.dense && s.Size() >= 20) ++dense_count;
  }
  EXPECT_EQ(dense_count, 2);
}

TEST(SplitterTest, FloorSeparatesNeighbourhoods) {
  // Same planar dwell on two floors back-to-back: clusters must not merge.
  RecordBlock block;
  Rng rng(4);
  TimestampMs t = 0;
  for (int i = 0; i < 25; ++i, t += 3000) {
    block.Append(rng.Gaussian(0, 0.3), rng.Gaussian(0, 0.3), 0, t);
  }
  for (int i = 0; i < 25; ++i, t += 3000) {
    block.Append(rng.Gaussian(0, 0.3), rng.Gaussian(0, 0.3), 1, t);
  }
  std::vector<Snippet> snippets = SplitSequence(block);
  // The floor boundary must coincide with a snippet boundary.
  bool boundary_at_25 = false;
  for (const Snippet& s : snippets) {
    if (s.begin == 25u || s.end == 25u) boundary_at_25 = true;
  }
  EXPECT_TRUE(boundary_at_25);
}

TEST(SplitterTest, MinSnippetMergesFragments) {
  RecordBlock block = WalkDwellWalk(15, 40, 5);
  SplitterOptions no_merge;
  no_merge.min_snippet = 0;
  SplitterOptions merge;
  merge.min_snippet = 60 * kMillisPerSecond;
  size_t with = SplitSequence(block, merge).size();
  size_t without = SplitSequence(block, no_merge).size();
  EXPECT_LE(with, without);
}

// Parameterized sweep: splitting must partition the record range exactly for
// any eps/min_pts combination.
class SplitterSweep
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(SplitterSweep, AlwaysPartitions) {
  auto [eps, min_pts] = GetParam();
  RecordBlock block = WalkDwellWalk(20, 30, 7);
  SplitterOptions opt;
  opt.eps_space = eps;
  opt.min_pts = min_pts;
  opt.min_snippet = 0;
  std::vector<Snippet> snippets = SplitSequence(block, opt);
  ASSERT_FALSE(snippets.empty());
  EXPECT_EQ(snippets.front().begin, 0u);
  EXPECT_EQ(snippets.back().end, block.Size());
  size_t covered = 0;
  for (const Snippet& s : snippets) {
    EXPECT_LT(s.begin, s.end);
    covered += s.Size();
  }
  EXPECT_EQ(covered, block.Size());
}

INSTANTIATE_TEST_SUITE_P(EpsAndDensity, SplitterSweep,
                         ::testing::Combine(::testing::Values(1.0, 2.0, 3.0, 5.0,
                                                              8.0),
                                            ::testing::Values(2u, 4u, 6u, 10u)));

// ---- parity with the sequential reference -----------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Every field of every snippet, so equal strings mean equal splits.
std::string Describe(const std::vector<Snippet>& snippets) {
  std::ostringstream out;
  for (const Snippet& s : snippets) {
    out << "[" << s.begin << "," << s.end << (s.dense ? " dense" : "") << ")";
  }
  return out.str();
}

// A time-sorted walk of 0-120 records on 1-3 floors: dwell jitter, steps of
// exactly `eps` from the predecessor (axis-aligned or at a random angle), far
// jumps, floor changes, repeated timestamps, and NaN / +-inf coordinates.
RecordBlock RandomSplitInput(Rng* rng, double eps) {
  // Non-finite or negative radii still need a finite geometry scale.
  const double step = std::isfinite(eps) && eps > 0 ? eps : 3.0;
  const int floors = static_cast<int>(rng->UniformInt(1, 3));
  const size_t n = static_cast<size_t>(rng->UniformInt(0, 120));
  RecordBlock block;
  block.device_id = "parity";
  TimestampMs t = rng->UniformInt(0, 1'000'000);
  double x = rng->Uniform(-20, 20);
  double y = rng->Uniform(-20, 20);
  geo::FloorId floor = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t dt_kind = rng->UniformInt(0, 9);
    if (dt_kind >= 3) {
      t += dt_kind < 8 ? rng->UniformInt(500, 5'000) : rng->UniformInt(0, 120'000);
    }  // else: a repeated timestamp
    const double px = std::isfinite(x) ? x : 0.0;
    const double py = std::isfinite(y) ? y : 0.0;
    switch (rng->UniformInt(0, 9)) {
      case 0:  // exactly eps along an axis
        x = px + (rng->Chance(0.5) ? step : -step);
        y = py;
        break;
      case 1:
        x = px;
        y = py + (rng->Chance(0.5) ? step : -step);
        break;
      case 2: {  // eps at a random angle
        const double a = rng->Uniform(0, 2 * std::numbers::pi);
        x = px + step * std::cos(a);
        y = py + step * std::sin(a);
        break;
      }
      case 3:  // a far jump
        x = rng->Uniform(-60, 60);
        y = rng->Uniform(-60, 60);
        break;
      case 4:  // a non-finite fix
        (rng->Chance(0.5) ? x : y) =
            std::array<double, 3>{kNaN, kInf, -kInf}[rng->UniformInt(0, 2)];
        if (rng->Chance(0.5)) x = px;
        break;
      default:  // dwell jitter
        x = px + rng->Gaussian(0, step * 0.4);
        y = py + rng->Gaussian(0, step * 0.4);
        break;
    }
    if (rng->Chance(0.1)) floor = static_cast<geo::FloorId>(rng->UniformInt(0, floors - 1));
    block.Append(x, y, floor, t);
  }
  return block;
}

// The block kernel equals the sequential scan, snippet for snippet, over
// random inputs and every option edge: zero, negative, NaN and
// infinite radii, negative and zero time windows, min_pts 0-10. For 2.5 the
// squared-radius bound lies one ulp above 2.5 * 2.5; for the others they are
// equal.
TEST(SplitterParityTest, RandomBlocksMatchReference) {
  const double kEpsSpace[] = {0, 0.1, 2.5, 3, 7.3, -1, kNaN, kInf};
  const DurationMs kEpsTime[] = {-1, 0, 1 * kMillisPerSecond, 90 * kMillisPerSecond};
  const DurationMs kMinSnippet[] = {0, 10 * kMillisPerSecond, 60 * kMillisPerSecond};
  Rng rng(20'000);
  size_t dense_cases = 0;
  for (int c = 0; c < 20'000; ++c) {
    SplitterOptions opt;
    opt.eps_space = kEpsSpace[rng.UniformInt(0, 7)];
    opt.eps_time = kEpsTime[rng.UniformInt(0, 3)];
    opt.min_pts = static_cast<size_t>(rng.UniformInt(0, 10));
    opt.min_snippet = kMinSnippet[rng.UniformInt(0, 2)];
    const RecordBlock block = RandomSplitInput(&rng, opt.eps_space);

    const std::vector<Snippet> expected = testing::ReferenceSplit(block, opt);
    for (const Snippet& s : expected) dense_cases += s.dense;
    ASSERT_EQ(Describe(SplitSequence(block, opt)), Describe(expected))
        << "case " << c << " n=" << block.Size() << " eps_space=" << opt.eps_space
        << " eps_time=" << opt.eps_time << " min_pts=" << opt.min_pts;
  }
  // The inputs exercise clustering, not just noise.
  EXPECT_GT(dense_cases, 5'000u);
}

// sqrt(6.250000000000001) rounds to 2.5, so a pair at that squared distance
// is within eps_space = 2.5 although its square exceeds 2.5 * 2.5.
TEST(SplitterParityTest, PairAtTheRadiusIsANeighbour) {
  RecordBlock block;
  block.Append(0.0, 0.0, 0, 0);
  block.Append(2.4886869392485473, 0.23756539818268532, 0, 1000);
  const geo::Point2 d = block.XY(1) - block.XY(0);
  ASSERT_GT(d.NormSq(), 2.5 * 2.5);
  ASSERT_EQ(d.Norm(), 2.5);
  SplitterOptions opt;
  opt.eps_space = 2.5;
  opt.min_pts = 2;
  opt.min_snippet = 0;
  EXPECT_EQ(Describe(testing::ReferenceSplit(block, opt)), "[0,2 dense)");
  EXPECT_EQ(Describe(SplitSequence(block, opt)), "[0,2 dense)");
}

// A NaN fix is not within any radius of itself: it has no neighbours, so with
// min_pts 2 it is noise while its finite neighbours cluster.
TEST(SplitterParityTest, NaNFixIsNotItsOwnNeighbour) {
  RecordBlock block;
  for (int i = 0; i < 6; ++i) {
    block.Append(i == 3 ? kNaN : 0.1 * i, 0.0, 0,
                             static_cast<TimestampMs>(i) * 1000);
  }
  SplitterOptions opt;
  opt.min_pts = 2;
  opt.min_snippet = 0;
  const std::string expected = "[0,3 dense)[3,4)[4,6 dense)";
  EXPECT_EQ(Describe(testing::ReferenceSplit(block, opt)), expected);
  EXPECT_EQ(Describe(SplitSequence(block, opt)), expected);
}

}  // namespace
}  // namespace trips::annotation
