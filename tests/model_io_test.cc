// Persistence round-trips for the learning models and the event identifier
// (the backend's "stored for reuse in other translation tasks" behaviour).
#include <gtest/gtest.h>

#include <cstdio>

#include "annotation/decision_tree.h"
#include "annotation/event_classifier.h"
#include "annotation/knn.h"
#include "annotation/logistic.h"
#include "annotation/random_forest.h"
#include "util/rng.h"

namespace trips::annotation {
namespace {

void MakeBlobs(int per_class, std::vector<Sample>* x, std::vector<int>* y,
               uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {6, 0}, {3, 6}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_class; ++i) {
      x->push_back({centers[c][0] + rng.Gaussian(0, 0.5),
                    centers[c][1] + rng.Gaussian(0, 0.5)});
      y->push_back(c);
    }
  }
}

// Round-trips a model through JSON and checks predictions are identical on a
// probe grid.
template <typename Model>
void ExpectRoundTripIdentical(const Model& original, Rng* rng) {
  json::Value doc = original.ToJson();
  // Also pass the serialized text through the parser, as a file would.
  auto reparsed = json::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok());
  auto restored = Model::FromJson(reparsed.ValueOrDie());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (int i = 0; i < 200; ++i) {
    Sample probe = {rng->Uniform(-3, 9), rng->Uniform(-3, 9)};
    EXPECT_EQ(restored->Predict(probe), original.Predict(probe));
    std::vector<double> pa = original.PredictProba(probe);
    std::vector<double> pb = restored->PredictProba(probe);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t c = 0; c < pa.size(); ++c) EXPECT_NEAR(pa[c], pb[c], 1e-12);
  }
}

TEST(ModelIoTest, DecisionTreeRoundTrip) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(50, &x, &y, 1);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(x, y, 3).ok());
  Rng rng(11);
  ExpectRoundTripIdentical(tree, &rng);
}

TEST(ModelIoTest, RandomForestRoundTrip) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(40, &x, &y, 2);
  RandomForest forest({.num_trees = 9});
  ASSERT_TRUE(forest.Train(x, y, 3).ok());
  Rng rng(12);
  ExpectRoundTripIdentical(forest, &rng);
  // Tree count survives.
  auto restored = RandomForest::FromJson(forest.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->TreeCount(), 9u);
}

TEST(ModelIoTest, LogisticRoundTrip) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(50, &x, &y, 3);
  LogisticRegression model;
  ASSERT_TRUE(model.Train(x, y, 3).ok());
  Rng rng(13);
  ExpectRoundTripIdentical(model, &rng);
}

TEST(ModelIoTest, KnnRoundTrip) {
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(30, &x, &y, 4);
  KnnClassifier knn({.k = 3});
  ASSERT_TRUE(knn.Train(x, y, 3).ok());
  Rng rng(14);
  ExpectRoundTripIdentical(knn, &rng);
  auto restored = KnnClassifier::FromJson(knn.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->SampleCount(), knn.SampleCount());
}

TEST(ModelIoTest, RejectsCorruptDocuments) {
  EXPECT_FALSE(DecisionTree::FromJson(json::Value(1.0)).ok());
  EXPECT_FALSE(RandomForest::FromJson(json::Value("x")).ok());
  EXPECT_FALSE(LogisticRegression::FromJson(json::Value(json::Object{})).ok());
  EXPECT_FALSE(KnnClassifier::FromJson(json::Value(json::Object{})).ok());

  // Wrong type tag.
  std::vector<Sample> x;
  std::vector<int> y;
  MakeBlobs(10, &x, &y, 5);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(x, y, 3).ok());
  EXPECT_FALSE(RandomForest::FromJson(tree.ToJson()).ok());

  // Broken internal links.
  json::Value doc = tree.ToJson();
  json::Value& nodes = doc.AsObject()["nodes"];
  if (!nodes.AsArray().empty() && !nodes.AsArray()[0].GetBool("leaf", true)) {
    nodes.AsArray()[0].AsObject()["left"] = 999999;
    EXPECT_FALSE(DecisionTree::FromJson(doc).ok());
  }
}

config::LabeledSegment Segment(const std::string& event, double speed,
                               uint64_t seed) {
  config::LabeledSegment seg;
  seg.event = event;
  Rng rng(seed);
  double x = 0;
  for (int i = 0; i < 30; ++i) {
    seg.segment.records.emplace_back(x + rng.Gaussian(0, 0.2),
                                     rng.Gaussian(0, 0.2), 0,
                                     static_cast<TimestampMs>(i) * 3000);
    x += speed * 3.0;
  }
  return seg;
}

TEST(ModelIoTest, EventClassifierFileRoundTrip) {
  std::vector<config::LabeledSegment> training;
  for (int i = 0; i < 12; ++i) {
    training.push_back(Segment("stay", 0.02, 100 + i));
    training.push_back(Segment("pass-by", 1.3, 200 + i));
  }
  EventClassifier classifier({.model = ModelKind::kRandomForest});
  ASSERT_TRUE(classifier.Train(training).ok());

  std::string path = testing::TempDir() + "/trips_identifier.json";
  ASSERT_TRUE(classifier.SaveToFile(path).ok());
  auto loaded = EventClassifier::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_TRUE(loaded->trained());
  EXPECT_EQ(loaded->event_names(), classifier.event_names());
  // Same predictions on fresh segments.
  positioning::RecordBlock block;
  auto features = [&block](const config::LabeledSegment& seg) {
    block.AssignFrom(seg.segment);
    return ExtractFeatures(block, 0, block.Size());
  };
  for (int i = 0; i < 5; ++i) {
    FeatureVector stay = features(Segment("x", 0.02, 900 + i));
    FeatureVector pass = features(Segment("x", 1.3, 950 + i));
    EXPECT_EQ(loaded->Identify(stay), classifier.Identify(stay));
    EXPECT_EQ(loaded->Identify(pass), classifier.Identify(pass));
    EXPECT_EQ(loaded->Identify(stay), "stay");
    EXPECT_EQ(loaded->Identify(pass), "pass-by");
  }
}

TEST(ModelIoTest, UntrainedClassifierWontSerialize) {
  EventClassifier classifier;
  EXPECT_EQ(classifier.ToJson().status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelIoTest, EventClassifierRejectsVocabularyMismatch) {
  std::vector<config::LabeledSegment> training;
  for (int i = 0; i < 6; ++i) {
    training.push_back(Segment("stay", 0.02, 300 + i));
    training.push_back(Segment("pass-by", 1.3, 400 + i));
  }
  EventClassifier classifier({.model = ModelKind::kDecisionTree});
  ASSERT_TRUE(classifier.Train(training).ok());
  auto doc = classifier.ToJson();
  ASSERT_TRUE(doc.ok());
  json::Value broken = doc.ValueOrDie();
  // Drop one event name: arity no longer matches the model.
  broken.AsObject()["events"].AsArray().pop_back();
  EXPECT_FALSE(EventClassifier::FromJson(broken).ok());
}

}  // namespace
}  // namespace trips::annotation
