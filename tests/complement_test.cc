#include <gtest/gtest.h>

#include <array>

#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "dsm/sample_spaces.h"
#include "testing/reference_complementor.h"
#include "util/rng.h"

namespace trips::complement {
namespace {

core::MobilitySemantic Triplet(const std::string& event, dsm::RegionId region,
                               const std::string& name, TimestampMs begin,
                               TimestampMs end) {
  return {event, region, name, {begin, end}, false};
}

class ComplementFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 1, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    // Cache some region ids.
    adidas_ = dsm_->FindRegionByName("Adidas")->id;
    nike_ = dsm_->FindRegionByName("Nike")->id;
    west_ = dsm_->FindRegionByName("West Corridor@1F")->id;
    hall_ = dsm_->FindRegionByName("Center Hall@1F")->id;
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  dsm::RegionId adidas_{}, nike_{}, west_{}, hall_{};
};

TEST_F(ComplementFixture, UniformKnowledgeRowsAreStochastic) {
  MobilityKnowledge k = MobilityKnowledge::Uniform(*dsm_);
  EXPECT_FALSE(k.transition_prob.empty());
  for (const auto& [region, row] : k.transition_prob) {
    double sum = 0;
    for (const auto& [next, p] : row) {
      EXPECT_GT(p, 0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_DOUBLE_EQ(k.TransitionProb(999, 0), 0);
}

TEST_F(ComplementFixture, KnowledgeBuilderCountsTransitions) {
  KnowledgeBuilder builder(dsm_.get());
  core::MobilitySemanticsSequence seq;
  seq.device_id = "d";
  seq.semantics.push_back(Triplet("stay", adidas_, "Adidas", 0, 60'000));
  seq.semantics.push_back(Triplet("pass-by", west_, "West", 61'000, 90'000));
  seq.semantics.push_back(Triplet("stay", nike_, "Nike", 91'000, 200'000));
  builder.AddSequence(seq);
  builder.AddSequence(seq);
  EXPECT_EQ(builder.SequenceCount(), 2u);

  MobilityKnowledge k = builder.Build(/*smoothing=*/0);
  EXPECT_EQ(k.observed_transitions, 4u);
  EXPECT_DOUBLE_EQ(k.TransitionProb(adidas_, west_), 1.0);
  EXPECT_DOUBLE_EQ(k.TransitionProb(west_, nike_), 1.0);
  EXPECT_DOUBLE_EQ(k.TransitionProb(nike_, adidas_), 0.0);
  // Popularity proportional to visits.
  EXPECT_NEAR(k.popularity.at(adidas_), 1.0 / 3, 1e-9);
  // Dwell averaged.
  EXPECT_EQ(k.mean_dwell.at(adidas_), 60'000);
}

TEST_F(ComplementFixture, SmoothingKeepsAdjacentTransitionsAlive) {
  KnowledgeBuilder builder(dsm_.get());
  core::MobilitySemanticsSequence seq;
  seq.semantics.push_back(Triplet("stay", adidas_, "Adidas", 0, 10'000));
  seq.semantics.push_back(Triplet("pass-by", west_, "West", 11'000, 20'000));
  builder.AddSequence(seq);
  MobilityKnowledge k = builder.Build(/*smoothing=*/0.5);
  // Observed transition dominates...
  EXPECT_GT(k.TransitionProb(adidas_, west_), 0.5);
  // ...but adjacent unobserved transitions keep non-zero mass: the west
  // corridor borders several shops.
  bool unobserved_positive = false;
  for (dsm::RegionId adj : dsm_->AdjacentRegions(west_)) {
    if (adj != nike_ && adj != adidas_ && k.TransitionProb(west_, adj) > 0) {
      unobserved_positive = true;
    }
  }
  EXPECT_TRUE(unobserved_positive);
}

TEST_F(ComplementFixture, InferPathEndpointsExcluded) {
  MobilityKnowledge k = MobilityKnowledge::Uniform(*dsm_);
  Complementor complementor(dsm_.get(), &k);
  // Adidas (west-top shop) -> Nike: both border the west corridor; shortest
  // MAP path passes through it.
  std::vector<dsm::RegionId> path = complementor.InferPath(adidas_, nike_);
  ASSERT_FALSE(path.empty());
  for (dsm::RegionId rid : path) {
    EXPECT_NE(rid, adidas_);
    EXPECT_NE(rid, nike_);
  }
  EXPECT_EQ(path.front(), west_);
  // Trivial cases.
  EXPECT_TRUE(complementor.InferPath(adidas_, adidas_).empty());
  EXPECT_TRUE(complementor.InferPath(dsm::kInvalidRegion, nike_).empty());
}

TEST_F(ComplementFixture, InferPathPrefersHighProbabilityRoute) {
  // Craft knowledge where Adidas -> Hall -> Nike is much more likely than
  // Adidas -> West -> Nike.
  MobilityKnowledge k;
  k.transition_prob[adidas_][hall_] = 0.9;
  k.transition_prob[adidas_][west_] = 0.1;
  k.transition_prob[hall_][nike_] = 0.9;
  k.transition_prob[hall_][adidas_] = 0.1;
  k.transition_prob[west_][nike_] = 0.1;
  k.transition_prob[west_][adidas_] = 0.9;
  k.mean_dwell[hall_] = 30'000;
  k.mean_dwell[west_] = 30'000;
  Complementor complementor(dsm_.get(), &k);
  std::vector<dsm::RegionId> path = complementor.InferPath(adidas_, nike_);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], hall_);
}

TEST_F(ComplementFixture, InferPathRespectsHopLimit) {
  // Chain A -> B -> C -> D -> E with max 1 intermediate step: unreachable.
  MobilityKnowledge k;
  k.transition_prob[0][1] = 1.0;
  k.transition_prob[1][2] = 1.0;
  k.transition_prob[2][3] = 1.0;
  k.transition_prob[3][4] = 1.0;
  ComplementorOptions opt;
  opt.max_inferred_steps = 1;
  Complementor tight(dsm_.get(), &k, opt);
  EXPECT_TRUE(tight.InferPath(0, 4).empty());
  ComplementorOptions wide;
  wide.max_inferred_steps = 5;
  Complementor loose(dsm_.get(), &k, wide);
  EXPECT_EQ(loose.InferPath(0, 4).size(), 3u);
}

// Stopping at the first settled goal state returns the full search's path on
// random knowledge tables: missing rows, zero probabilities, and (in every
// other table) equal probabilities, which make cost ties the common case.
TEST_F(ComplementFixture, InferPathMatchesFullSearchOnRandomKnowledge) {
  Rng rng(1'717);
  size_t paths = 0;
  for (int table = 0; table < 200; ++table) {
    const int regions = static_cast<int>(rng.UniformInt(2, 30));
    const bool equal = table % 2 == 0;
    const double shared_p = std::array<double, 3>{1.0, 0.5, 0.2}[rng.UniformInt(0, 2)];
    MobilityKnowledge k;
    for (dsm::RegionId a = 0; a < regions; ++a) {
      if (rng.Chance(0.15)) continue;  // no outgoing transitions learned
      const int64_t degree = rng.UniformInt(1, 6);
      for (int64_t d = 0; d < degree; ++d) {
        const auto b = static_cast<dsm::RegionId>(rng.UniformInt(0, regions - 1));
        k.transition_prob[a][b] =
            rng.Chance(0.1) ? 0.0 : (equal ? shared_p : rng.Uniform(0, 1));
      }
    }
    for (int steps = 0; steps <= 6; ++steps) {
      ComplementorOptions opt;
      opt.max_inferred_steps = steps;
      Complementor complementor(dsm_.get(), &k, opt);
      for (int q = 0; q < 30; ++q) {
        // -1 is the invalid region; equal endpoints come up often enough.
        const auto from = static_cast<dsm::RegionId>(rng.UniformInt(-1, regions - 1));
        const auto to = q % 10 == 0
                            ? from
                            : static_cast<dsm::RegionId>(rng.UniformInt(-1, regions - 1));
        const std::vector<dsm::RegionId> expected =
            testing::ReferenceInferPath(k, opt, from, to);
        ASSERT_EQ(complementor.InferPath(from, to), expected)
            << "table " << table << " steps " << steps << " " << from << "->" << to;
        paths += !expected.empty();
      }
    }
  }
  // The tables produce real multi-region paths, not just empty answers.
  EXPECT_GT(paths, 2'000u);
}

TEST_F(ComplementFixture, ComplementFillsQualifyingGap) {
  MobilityKnowledge k = MobilityKnowledge::Uniform(*dsm_);
  Complementor complementor(dsm_.get(), &k);

  core::MobilitySemanticsSequence seq;
  seq.device_id = "g";
  seq.semantics.push_back(Triplet("stay", adidas_, "Adidas", 0, 60'000));
  // 5-minute hole, then Nike.
  seq.semantics.push_back(Triplet("stay", nike_, "Nike", 360'000, 500'000));

  ComplementReport report;
  core::MobilitySemanticsSequence out = complementor.Complement(seq, &report);
  EXPECT_EQ(report.gaps_found, 1u);
  EXPECT_EQ(report.gaps_filled, 1u);
  EXPECT_GT(report.triplets_inferred, 0u);
  ASSERT_GT(out.semantics.size(), seq.semantics.size());

  // Inferred triplets are marked, lie inside the gap, and are time-ordered.
  for (size_t i = 1; i + 1 < out.semantics.size(); ++i) {
    const core::MobilitySemantic& s = out.semantics[i];
    if (!s.inferred) continue;
    EXPECT_GT(s.range.begin, static_cast<TimestampMs>(60'000));
    EXPECT_LT(s.range.end, static_cast<TimestampMs>(360'000));
  }
  for (size_t i = 1; i < out.semantics.size(); ++i) {
    EXPECT_GE(out.semantics[i].range.begin, out.semantics[i - 1].range.begin);
  }
}

TEST_F(ComplementFixture, ShortGapsIgnored) {
  MobilityKnowledge k = MobilityKnowledge::Uniform(*dsm_);
  Complementor complementor(dsm_.get(), &k);
  core::MobilitySemanticsSequence seq;
  seq.semantics.push_back(Triplet("stay", adidas_, "Adidas", 0, 60'000));
  seq.semantics.push_back(Triplet("stay", nike_, "Nike", 70'000, 120'000));  // 10 s
  ComplementReport report;
  core::MobilitySemanticsSequence out = complementor.Complement(seq, &report);
  EXPECT_EQ(report.gaps_found, 0u);
  EXPECT_EQ(out.semantics.size(), 2u);
}

TEST_F(ComplementFixture, SameRegionGapBecomesInferredStay) {
  MobilityKnowledge k = MobilityKnowledge::Uniform(*dsm_);
  Complementor complementor(dsm_.get(), &k);
  core::MobilitySemanticsSequence seq;
  seq.semantics.push_back(Triplet("stay", adidas_, "Adidas", 0, 60'000));
  seq.semantics.push_back(Triplet("stay", adidas_, "Adidas", 400'000, 500'000));
  ComplementReport report;
  core::MobilitySemanticsSequence out = complementor.Complement(seq, &report);
  ASSERT_EQ(out.semantics.size(), 3u);
  EXPECT_TRUE(out.semantics[1].inferred);
  EXPECT_EQ(out.semantics[1].region, adidas_);
  EXPECT_EQ(out.semantics[1].event, core::kEventStay);  // long gap
}

TEST_F(ComplementFixture, EmptySequencePassesThrough) {
  MobilityKnowledge k = MobilityKnowledge::Uniform(*dsm_);
  Complementor complementor(dsm_.get(), &k);
  core::MobilitySemanticsSequence empty;
  ComplementReport report;
  EXPECT_TRUE(complementor.Complement(empty, &report).Empty());
  EXPECT_EQ(report.gaps_found, 0u);
}

TEST_F(ComplementFixture, LearnedKnowledgeBeatsUniformOnBiasedTraffic) {
  // Build a corpus where Adidas -> Hall -> Nike dominates, then check the
  // complementor picks Hall rather than West for the gap.
  KnowledgeBuilder builder(dsm_.get());
  for (int i = 0; i < 20; ++i) {
    core::MobilitySemanticsSequence seq;
    seq.semantics.push_back(Triplet("stay", adidas_, "Adidas", 0, 60'000));
    seq.semantics.push_back(Triplet("pass-by", hall_, "Hall", 61'000, 90'000));
    seq.semantics.push_back(Triplet("stay", nike_, "Nike", 91'000, 200'000));
    builder.AddSequence(seq);
  }
  MobilityKnowledge learned = builder.Build(0.1);
  Complementor complementor(dsm_.get(), &learned);
  std::vector<dsm::RegionId> path = complementor.InferPath(adidas_, nike_);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path[0], hall_);
}

}  // namespace
}  // namespace trips::complement
