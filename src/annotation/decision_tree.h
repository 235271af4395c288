// CART-style decision tree classifier (Gini impurity, axis-aligned splits),
// implemented from scratch. One of the learning-based identification models
// usable by the Annotator, and the base learner of the random forest.
#pragma once

#include "annotation/classifier.h"
#include "json/json.h"

namespace trips::annotation {

/// Tree growth hyper-parameters.
struct DecisionTreeOptions {
  int max_depth = 12;
  size_t min_samples_split = 4;
  size_t min_samples_leaf = 1;
  /// Features considered per split: 0 = all, otherwise a random subset of
  /// this size (used by the forest).
  size_t max_features = 0;
  /// Seed for the feature subsampling (only relevant when max_features > 0).
  uint64_t seed = 0x7ee5u;
};

/// A single classification tree.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeOptions options = {});

  Status Train(const std::vector<Sample>& samples, const std::vector<int>& labels,
               int num_classes) override;
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::string Name() const override { return "decision_tree"; }
  int NumClasses() const override { return num_classes_; }

  /// The class distribution of the leaf `x` descends to: NumClasses()
  /// entries of the tree's leaf table, read in place.
  std::span<const double> LeafDistribution(std::span<const double> x) const;

  /// Number of nodes in the grown tree (0 before training).
  size_t NodeCount() const { return nodes_.size(); }
  /// Depth of the grown tree (0 before training).
  int Depth() const;

  /// Serializes the trained tree (structure + leaf distributions).
  json::Value ToJson() const;
  /// Restores a tree serialized with ToJson.
  static Result<DecisionTree> FromJson(const json::Value& value);

 private:
  struct Node {
    bool leaf = true;
    int feature = -1;
    double threshold = 0;
    int left = -1;
    int right = -1;
    int depth = 0;
    uint32_t row = 0;  // leaf: offset of its class distribution in leaf_probs_
  };

  int Grow(const std::vector<Sample>& samples, const std::vector<int>& labels,
           std::vector<size_t>& indices, int depth, Rng* rng);
  const Node& Descend(std::span<const double> x) const;

  DecisionTreeOptions options_;
  std::vector<Node> nodes_;
  // Leaf class distributions, num_classes_ entries per leaf in creation order.
  std::vector<double> leaf_probs_;
  int num_classes_ = 0;
  size_t num_features_ = 0;
};

}  // namespace trips::annotation
