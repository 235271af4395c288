#include "annotation/random_forest.h"

#include <algorithm>
#include <cmath>

namespace trips::annotation {

RandomForest::RandomForest(RandomForestOptions options) : options_(options) {}

Status RandomForest::Train(const std::vector<Sample>& samples,
                           const std::vector<int>& labels, int num_classes) {
  if (samples.empty()) return Status::InvalidArgument("no training samples");
  if (samples.size() != labels.size()) {
    return Status::InvalidArgument("samples/labels size mismatch");
  }
  if (options_.num_trees < 1) return Status::InvalidArgument("need >= 1 tree");

  size_t num_features = samples[0].size();
  size_t per_split = options_.max_features > 0
                         ? options_.max_features
                         : static_cast<size_t>(
                               std::max(1.0, std::floor(std::sqrt(
                                                 static_cast<double>(num_features)))));

  trees_.clear();
  num_classes_ = num_classes;
  Rng rng(options_.seed);
  const size_t n = samples.size();
  std::vector<Sample> boot_x(n);
  std::vector<int> boot_y(n);
  for (int t = 0; t < options_.num_trees; ++t) {
    for (size_t i = 0; i < n; ++i) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      boot_x[i] = samples[pick];
      boot_y[i] = labels[pick];
    }
    DecisionTreeOptions topt = options_.tree;
    topt.max_features = per_split;
    topt.seed = static_cast<uint64_t>(rng.UniformInt(1, 1'000'000'000));
    DecisionTree tree(topt);
    TRIPS_RETURN_NOT_OK(tree.Train(boot_x, boot_y, num_classes));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

void RandomForest::PredictProbaInto(std::span<const double> x,
                                    std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  if (trees_.empty()) return;
  for (const DecisionTree& tree : trees_) {
    std::span<const double> leaf = tree.LeafDistribution(x);
    const size_t classes = std::min(out.size(), leaf.size());
    for (size_t c = 0; c < classes; ++c) out[c] += leaf[c];
  }
  for (double& p : out) p /= static_cast<double>(trees_.size());
}

}  // namespace trips::annotation

namespace trips::annotation {

json::Value RandomForest::ToJson() const {
  json::Object root;
  root["type"] = Name();
  root["num_classes"] = num_classes_;
  json::Array trees;
  for (const DecisionTree& tree : trees_) trees.push_back(tree.ToJson());
  root["trees"] = std::move(trees);
  return root;
}

Result<RandomForest> RandomForest::FromJson(const json::Value& value) {
  if (!value.is_object() || value.GetString("type") != "random_forest") {
    return Status::ParseError("not a serialized random forest");
  }
  RandomForest forest;
  forest.num_classes_ = static_cast<int>(value.GetInt("num_classes"));
  const json::Value* trees = value.AsObject().Find("trees");
  if (trees == nullptr || !trees->is_array() || trees->AsArray().empty()) {
    return Status::ParseError("random forest without trees");
  }
  for (const json::Value& jt : trees->AsArray()) {
    TRIPS_ASSIGN_OR_RETURN(DecisionTree tree, DecisionTree::FromJson(jt));
    forest.trees_.push_back(std::move(tree));
  }
  return forest;
}

}  // namespace trips::annotation
