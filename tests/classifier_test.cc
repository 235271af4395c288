#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "annotation/decision_tree.h"
#include "annotation/event_classifier.h"
#include "annotation/knn.h"
#include "annotation/logistic.h"
#include "annotation/random_forest.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"
#include "util/rng.h"

namespace trips::annotation {
namespace {

// Three Gaussian blobs in 2-D — linearly separable with margin.
void MakeBlobs(int per_class, std::vector<Sample>* x, std::vector<int>* y,
               uint64_t seed = 1, double spread = 0.5) {
  Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {6, 0}, {3, 6}};
  x->clear();
  y->clear();
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_class; ++i) {
      x->push_back({centers[c][0] + rng.Gaussian(0, spread),
                    centers[c][1] + rng.Gaussian(0, spread)});
      y->push_back(c);
    }
  }
}

// XOR-style data — not linearly separable; trees must still fit it.
void MakeXor(int per_quadrant, std::vector<Sample>* x, std::vector<int>* y,
             uint64_t seed = 2) {
  Rng rng(seed);
  x->clear();
  y->clear();
  for (int q = 0; q < 4; ++q) {
    double cx = (q & 1) ? 3 : -3;
    double cy = (q & 2) ? 3 : -3;
    int label = ((q & 1) != 0) ^ ((q & 2) != 0) ? 1 : 0;
    for (int i = 0; i < per_quadrant; ++i) {
      x->push_back({cx + rng.Gaussian(0, 0.6), cy + rng.Gaussian(0, 0.6)});
      y->push_back(label);
    }
  }
}

std::unique_ptr<Classifier> MakeModel(const std::string& kind) {
  if (kind == "tree") return std::make_unique<DecisionTree>();
  if (kind == "forest") return std::make_unique<RandomForest>();
  if (kind == "knn") return std::make_unique<KnnClassifier>();
  return std::make_unique<LogisticRegression>();
}

class AllModels : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModels, FitsSeparableBlobs) {
  std::vector<Sample> train_x, test_x;
  std::vector<int> train_y, test_y;
  MakeBlobs(60, &train_x, &train_y, 1);
  MakeBlobs(40, &test_x, &test_y, 99);

  auto model = MakeModel(GetParam());
  ASSERT_TRUE(model->Train(train_x, train_y, 3).ok());
  EXPECT_EQ(model->NumClasses(), 3);
  EXPECT_GT(Accuracy(*model, test_x, test_y), 0.95) << model->Name();
}

TEST_P(AllModels, ProbabilitiesSumToOne) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(30, &x, &y, 3);
  auto model = MakeModel(GetParam());
  ASSERT_TRUE(model->Train(x, y, 3).ok());
  for (const Sample& s : {Sample{0, 0}, Sample{6, 0}, Sample{3, 6}, Sample{2, 2}}) {
    std::vector<double> p = model->PredictProba(s);
    ASSERT_EQ(p.size(), 3u);
    double sum = 0;
    for (double v : p) {
      EXPECT_GE(v, 0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(AllModels, RejectsBadInput) {
  auto model = MakeModel(GetParam());
  EXPECT_FALSE(model->Train({}, {}, 2).ok());
  EXPECT_FALSE(model->Train({{1, 2}}, {0, 1}, 2).ok());         // size mismatch
  EXPECT_FALSE(model->Train({{1, 2}, {3}}, {0, 1}, 2).ok());    // ragged
}

TEST_P(AllModels, PredictsConfidentlyOnTrainingPoints) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(50, &x, &y, 4, /*spread=*/0.3);
  auto model = MakeModel(GetParam());
  ASSERT_TRUE(model->Train(x, y, 3).ok());
  EXPECT_GT(Accuracy(*model, x, y), 0.97);
}

INSTANTIATE_TEST_SUITE_P(Models, AllModels,
                         ::testing::Values("tree", "forest", "logistic", "knn"));

TEST(KnnTest, FitsXor) {
  std::vector<Sample> x, tx;
  std::vector<int> y, ty;
  MakeXor(60, &x, &y, 15);
  MakeXor(40, &tx, &ty, 151);
  KnnClassifier knn;
  ASSERT_TRUE(knn.Train(x, y, 2).ok());
  EXPECT_EQ(knn.SampleCount(), x.size());
  EXPECT_GT(Accuracy(knn, tx, ty), 0.95);
}

TEST(KnnTest, KOneMemorizesTrainingSet) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(30, &x, &y, 16);
  KnnClassifier knn({.k = 1});
  ASSERT_TRUE(knn.Train(x, y, 3).ok());
  EXPECT_DOUBLE_EQ(Accuracy(knn, x, y), 1.0);
}

TEST(KnnTest, KLargerThanDatasetStillWorks) {
  std::vector<Sample> x = {{0, 0}, {0, 1}, {5, 5}, {5, 6}};
  std::vector<int> y = {0, 0, 1, 1};
  KnnClassifier knn({.k = 100, .distance_weighted = true});
  ASSERT_TRUE(knn.Train(x, y, 2).ok());
  // Distance weighting keeps the nearby class dominant even with k > n.
  EXPECT_EQ(knn.Predict({0, 0.5}), 0);
  EXPECT_EQ(knn.Predict({5, 5.5}), 1);
}

TEST(KnnTest, RejectsZeroK) {
  KnnClassifier knn({.k = 0});
  EXPECT_FALSE(knn.Train({{1}, {2}}, {0, 1}, 2).ok());
}

TEST(DecisionTreeTest, FitsXor) {
  std::vector<Sample> x, tx;
  std::vector<int> y, ty;
  MakeXor(60, &x, &y, 5);
  MakeXor(40, &tx, &ty, 77);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(x, y, 2).ok());
  EXPECT_GT(Accuracy(tree, tx, ty), 0.95);
  EXPECT_GT(tree.NodeCount(), 1u);
  EXPECT_GE(tree.Depth(), 2);
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeXor(50, &x, &y, 6);
  DecisionTreeOptions opt;
  opt.max_depth = 1;
  DecisionTree stump(opt);
  ASSERT_TRUE(stump.Train(x, y, 2).ok());
  EXPECT_LE(stump.Depth(), 1);
}

TEST(DecisionTreeTest, PureLeafSingleClassFails) {
  // num_classes < 2 is rejected.
  DecisionTree tree;
  EXPECT_FALSE(tree.Train({{1}, {2}}, {0, 0}, 1).ok());
  // Out-of-range labels are rejected.
  EXPECT_FALSE(tree.Train({{1}, {2}}, {0, 5}, 2).ok());
}

TEST(DecisionTreeTest, ConstantFeaturesFallBackToMajorityLeaf) {
  std::vector<Sample> x = {{1, 1}, {1, 1}, {1, 1}, {1, 1}};
  std::vector<int> y = {0, 0, 1, 0};
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(x, y, 2).ok());
  EXPECT_EQ(tree.Predict({1, 1}), 0);  // majority class
}

TEST(RandomForestTest, FitsXorBetterThanLogistic) {
  std::vector<Sample> x, tx;
  std::vector<int> y, ty;
  MakeXor(80, &x, &y, 7);
  MakeXor(50, &tx, &ty, 88);
  RandomForest forest;
  LogisticRegression logistic;
  ASSERT_TRUE(forest.Train(x, y, 2).ok());
  ASSERT_TRUE(logistic.Train(x, y, 2).ok());
  double forest_acc = Accuracy(forest, tx, ty);
  double logistic_acc = Accuracy(logistic, tx, ty);
  EXPECT_GT(forest_acc, 0.9);
  // XOR defeats a linear model; the forest must beat it clearly.
  EXPECT_GT(forest_acc, logistic_acc + 0.2);
}

TEST(RandomForestTest, TreeCountHonored) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(20, &x, &y, 8);
  RandomForestOptions opt;
  opt.num_trees = 7;
  RandomForest forest(opt);
  ASSERT_TRUE(forest.Train(x, y, 3).ok());
  EXPECT_EQ(forest.TreeCount(), 7u);
  RandomForestOptions bad;
  bad.num_trees = 0;
  RandomForest empty(bad);
  EXPECT_FALSE(empty.Train(x, y, 3).ok());
}

TEST(LogisticTest, HandlesConstantFeature) {
  // Second feature constant: standardization must not divide by zero.
  std::vector<Sample> x = {{0, 5}, {1, 5}, {4, 5}, {5, 5}};
  std::vector<int> y = {0, 0, 1, 1};
  LogisticRegression model;
  ASSERT_TRUE(model.Train(x, y, 2).ok());
  EXPECT_EQ(model.Predict({0.2, 5}), 0);
  EXPECT_EQ(model.Predict({4.8, 5}), 1);
}

TEST(MetricsTest, PerClassEvaluation) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(40, &x, &y, 9);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(x, y, 3).ok());
  std::vector<ClassMetrics> metrics = EvaluatePerClass(tree, x, y, 3);
  ASSERT_EQ(metrics.size(), 3u);
  for (const ClassMetrics& m : metrics) {
    EXPECT_EQ(m.support, 40u);
    EXPECT_GT(m.precision, 0.9);
    EXPECT_GT(m.recall, 0.9);
    EXPECT_GT(m.f1, 0.9);
  }
}

TEST(MetricsTest, AccuracyEdgeCases) {
  DecisionTree tree;
  EXPECT_DOUBLE_EQ(Accuracy(tree, {}, {}), 0);
  EXPECT_DOUBLE_EQ(Accuracy(tree, {{1}}, {0, 1}), 0);  // size mismatch
}

// ---- the forest average, bit for bit ----

// A seeded Event Editor corpus: the ground-truth segments of generated mall
// visits, labelled with their true events.
std::vector<config::LabeledSegment> EventCorpus(int devices, uint64_t seed) {
  dsm::Dsm mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2}).ValueOrDie();
  dsm::RoutePlanner planner = dsm::RoutePlanner::Build(&mall).ValueOrDie();
  mobility::MobilityGenerator gen(&mall, &planner);
  Rng rng(seed);
  std::vector<config::LabeledSegment> segments;
  for (int d = 0; d < devices; ++d) {
    auto dev = gen.GenerateDevice("corpus-" + std::to_string(d), 0, &rng);
    EXPECT_TRUE(dev.ok());
    for (const core::MobilitySemantic& s : dev->semantics.semantics) {
      config::LabeledSegment seg;
      seg.event = s.event;
      seg.segment.device_id = dev->truth.device_id;
      seg.segment.records = dev->truth.RecordsIn(s.range);
      if (seg.segment.records.size() >= 2) segments.push_back(std::move(seg));
    }
  }
  return segments;
}

// The forest average as first written: each tree's own probability vector,
// added in tree order, then divided by the tree count.
std::vector<double> TreeAverage(const RandomForest& forest, const Sample& x) {
  std::vector<double> sum(static_cast<size_t>(forest.NumClasses()), 0.0);
  for (const DecisionTree& tree : forest.trees()) {
    std::vector<double> p = tree.PredictProba(x);
    for (size_t c = 0; c < sum.size() && c < p.size(); ++c) sum[c] += p[c];
  }
  for (double& v : sum) v /= static_cast<double>(forest.TreeCount());
  return sum;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The corpus rows, a jittered copy of each, and uniform draws from the rows'
// bounding box, where the trees disagree most and the leaf sums are
// fractional.
std::vector<Sample> CorpusProbes(const std::vector<Sample>& rows) {
  std::vector<Sample> probes = rows;
  Rng rng(77);
  Sample lo = rows.front(), hi = rows.front();
  for (const Sample& row : rows) {
    Sample s = row;
    for (size_t f = 0; f < s.size(); ++f) {
      lo[f] = std::min(lo[f], row[f]);
      hi[f] = std::max(hi[f], row[f]);
      s[f] *= rng.Uniform(0.9, 1.1);
    }
    probes.push_back(std::move(s));
  }
  for (int k = 0; k < 2000; ++k) {
    Sample s(lo.size());
    for (size_t f = 0; f < s.size(); ++f) {
      s[f] = lo[f] + (hi[f] - lo[f]) * rng.Uniform(0, 1);
    }
    probes.push_back(std::move(s));
  }
  return probes;
}

TEST(RandomForestTest, PredictProbaMatchesTreeAverage) {
  std::vector<config::LabeledSegment> corpus = EventCorpus(8, 21);
  std::vector<std::string> vocab;
  for (const config::LabeledSegment& seg : corpus) {
    if (std::find(vocab.begin(), vocab.end(), seg.event) == vocab.end()) {
      vocab.push_back(seg.event);
    }
  }
  ASSERT_GE(vocab.size(), 2u);
  std::vector<Sample> x;
  std::vector<int> y;
  BuildTrainingMatrix(corpus, vocab, &x, &y);
  ASSERT_GT(x.size(), 50u);

  RandomForest forest;  // the default identification model: 25 trees
  ASSERT_TRUE(forest.Train(x, y, static_cast<int>(vocab.size())).ok());
  ASSERT_EQ(forest.TreeCount(), 25u);

  // The same forest loaded from JSON, its leaves re-weighted to seeded
  // arbitrary distributions: grown leaves are mostly pure, so their sums are
  // whole numbers, which divide by the tree count the same way however the
  // average is taken; arbitrary rows make the sum order and the division
  // show in the last bit.
  json::Value doc = forest.ToJson();
  Rng rng(0x1eaf);
  for (json::Value& tree : doc.AsObject()["trees"].AsArray()) {
    for (json::Value& node : tree.AsObject()["nodes"].AsArray()) {
      if (!node.AsObject().Contains("probs")) continue;
      json::Array& probs = node.AsObject()["probs"].AsArray();
      std::vector<double> w(probs.size());
      double total = 0;
      for (double& v : w) total += v = rng.Uniform(0.01, 1);
      for (size_t c = 0; c < w.size(); ++c) probs[c] = json::Value(w[c] / total);
    }
  }
  auto loaded = RandomForest::FromJson(json::Parse(doc.Dump()).ValueOrDie());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->TreeCount(), 25u);

  for (const Sample& s : CorpusProbes(x)) {
    std::vector<double> p = forest.PredictProba(s);
    ASSERT_TRUE(BitEqual(p, TreeAverage(forest, s)));
    ASSERT_TRUE(BitEqual(loaded->PredictProba(s), TreeAverage(*loaded, s)));
    EXPECT_EQ(forest.Predict(s), static_cast<int>(std::max_element(p.begin(), p.end()) -
                                                  p.begin()));
  }
}

TEST(EventClassifierTest, LabelsMatchTreeAverageOnCorpus) {
  std::vector<config::LabeledSegment> corpus = EventCorpus(8, 21);
  EventClassifier classifier;  // random forest
  ASSERT_TRUE(classifier.Train(corpus).ok());
  auto restored = EventClassifier::FromJson(classifier.ToJson().ValueOrDie());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const EventClassifier* const models[] = {&classifier, &restored.ValueOrDie()};
  for (const EventClassifier* c : models) {
    const auto* forest = dynamic_cast<const RandomForest*>(c->model());
    ASSERT_NE(forest, nullptr);
    for (const config::LabeledSegment& seg : corpus) {
      positioning::RecordBlock block =
          positioning::RecordBlock::FromSequence(seg.segment);
      FeatureVector f = ExtractFeatures(block, 0, block.Size());
      std::vector<double> ref = TreeAverage(*forest, Sample(f.begin(), f.end()));
      size_t best = static_cast<size_t>(std::max_element(ref.begin(), ref.end()) -
                                        ref.begin());
      auto [event, confidence] = c->IdentifyWithConfidence(f);
      EXPECT_EQ(event, c->event_names()[best]);
      EXPECT_EQ(confidence, ref[best]);
      EXPECT_EQ(c->Identify(f), event);
    }
  }
}

}  // namespace
}  // namespace trips::annotation
