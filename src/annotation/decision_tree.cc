#include "annotation/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace trips::annotation {

namespace {

// Gini impurity of a label histogram.
double Gini(const std::vector<size_t>& counts, size_t total) {
  if (total == 0) return 0;
  double g = 1.0;
  for (size_t c : counts) {
    double p = static_cast<double>(c) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeOptions options) : options_(options) {}

Status DecisionTree::Train(const std::vector<Sample>& samples,
                           const std::vector<int>& labels, int num_classes) {
  if (samples.empty()) return Status::InvalidArgument("no training samples");
  if (samples.size() != labels.size()) {
    return Status::InvalidArgument("samples/labels size mismatch");
  }
  if (num_classes < 2) return Status::InvalidArgument("need >= 2 classes");
  num_features_ = samples[0].size();
  for (const Sample& s : samples) {
    if (s.size() != num_features_) {
      return Status::InvalidArgument("ragged feature vectors");
    }
  }
  for (int label : labels) {
    if (label < 0 || label >= num_classes) {
      return Status::InvalidArgument("label out of range");
    }
  }
  num_classes_ = num_classes;
  nodes_.clear();
  leaf_probs_.clear();
  std::vector<size_t> indices(samples.size());
  std::iota(indices.begin(), indices.end(), 0);
  Rng rng(options_.seed);
  Grow(samples, labels, indices, 0, &rng);
  return Status::OK();
}

int DecisionTree::Grow(const std::vector<Sample>& samples,
                       const std::vector<int>& labels, std::vector<size_t>& indices,
                       int depth, Rng* rng) {
  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].depth = depth;

  // Class histogram for this node.
  std::vector<size_t> counts(num_classes_, 0);
  for (size_t i : indices) ++counts[labels[i]];
  const size_t total = indices.size();
  double impurity = Gini(counts, total);

  auto make_leaf = [&]() {
    Node& node = nodes_[node_id];
    node.leaf = true;
    node.row = static_cast<uint32_t>(leaf_probs_.size());
    for (int c = 0; c < num_classes_; ++c) {
      leaf_probs_.push_back(
          total > 0 ? static_cast<double>(counts[c]) / static_cast<double>(total) : 0);
    }
  };

  if (depth >= options_.max_depth || total < options_.min_samples_split ||
      impurity <= 1e-12) {
    make_leaf();
    return node_id;
  }

  // Candidate features (all, or a random subset for forests).
  std::vector<size_t> feats(num_features_);
  std::iota(feats.begin(), feats.end(), 0);
  if (options_.max_features > 0 && options_.max_features < num_features_) {
    rng->Shuffle(&feats);
    feats.resize(options_.max_features);
  }

  int best_feature = -1;
  double best_threshold = 0;
  double best_gain = 1e-9;

  std::vector<std::pair<double, int>> column;  // (value, label)
  column.reserve(total);
  for (size_t f : feats) {
    column.clear();
    for (size_t i : indices) column.emplace_back(samples[i][f], labels[i]);
    std::sort(column.begin(), column.end());
    if (column.front().first == column.back().first) continue;

    std::vector<size_t> left_counts(num_classes_, 0);
    size_t left_total = 0;
    for (size_t k = 0; k + 1 < column.size(); ++k) {
      ++left_counts[column[k].second];
      ++left_total;
      if (column[k].first == column[k + 1].first) continue;
      size_t right_total = total - left_total;
      if (left_total < options_.min_samples_leaf ||
          right_total < options_.min_samples_leaf) {
        continue;
      }
      std::vector<size_t> right_counts(num_classes_);
      for (int c = 0; c < num_classes_; ++c) right_counts[c] = counts[c] - left_counts[c];
      double weighted =
          (static_cast<double>(left_total) * Gini(left_counts, left_total) +
           static_cast<double>(right_total) * Gini(right_counts, right_total)) /
          static_cast<double>(total);
      double gain = impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (column[k].first + column[k + 1].first) / 2;
      }
    }
  }

  if (best_feature < 0) {
    make_leaf();
    return node_id;
  }

  std::vector<size_t> left_idx, right_idx;
  for (size_t i : indices) {
    (samples[i][best_feature] <= best_threshold ? left_idx : right_idx).push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) {
    make_leaf();
    return node_id;
  }

  int left = Grow(samples, labels, left_idx, depth + 1, rng);
  int right = Grow(samples, labels, right_idx, depth + 1, rng);
  Node& node = nodes_[node_id];
  node.leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

const DecisionTree::Node& DecisionTree::Descend(std::span<const double> x) const {
  int id = 0;
  while (!nodes_[id].leaf) {
    const Node& node = nodes_[id];
    double v = node.feature < static_cast<int>(x.size()) ? x[node.feature] : 0;
    id = v <= node.threshold ? node.left : node.right;
  }
  return nodes_[id];
}

std::span<const double> DecisionTree::LeafDistribution(
    std::span<const double> x) const {
  return {leaf_probs_.data() + Descend(x).row, static_cast<size_t>(num_classes_)};
}

void DecisionTree::PredictProbaInto(std::span<const double> x,
                                    std::span<double> out) const {
  std::span<const double> leaf = LeafDistribution(x);
  std::copy_n(leaf.begin(), std::min(leaf.size(), out.size()), out.begin());
}

int DecisionTree::Depth() const {
  int depth = 0;
  for (const Node& n : nodes_) depth = std::max(depth, n.depth);
  return depth;
}

}  // namespace trips::annotation

namespace trips::annotation {

json::Value DecisionTree::ToJson() const {
  json::Object root;
  root["type"] = Name();
  root["num_classes"] = num_classes_;
  root["num_features"] = static_cast<int64_t>(num_features_);
  json::Array nodes;
  for (const Node& node : nodes_) {
    json::Object jn;
    jn["leaf"] = node.leaf;
    jn["depth"] = node.depth;
    if (node.leaf) {
      json::Array probs;
      for (int c = 0; c < num_classes_; ++c) {
        probs.push_back(leaf_probs_[node.row + c]);
      }
      jn["probs"] = std::move(probs);
    } else {
      jn["feature"] = node.feature;
      jn["threshold"] = node.threshold;
      jn["left"] = node.left;
      jn["right"] = node.right;
    }
    nodes.push_back(std::move(jn));
  }
  root["nodes"] = std::move(nodes);
  return root;
}

Result<DecisionTree> DecisionTree::FromJson(const json::Value& value) {
  if (!value.is_object() || value.GetString("type") != "decision_tree") {
    return Status::ParseError("not a serialized decision tree");
  }
  DecisionTree tree;
  tree.num_classes_ = static_cast<int>(value.GetInt("num_classes"));
  tree.num_features_ = static_cast<size_t>(value.GetInt("num_features"));
  const json::Value* nodes = value.AsObject().Find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->AsArray().empty()) {
    return Status::ParseError("decision tree without nodes");
  }
  const int count = static_cast<int>(nodes->AsArray().size());
  for (const json::Value& jn : nodes->AsArray()) {
    if (!jn.is_object()) return Status::ParseError("tree node must be an object");
    Node node;
    node.leaf = jn.GetBool("leaf", true);
    node.depth = static_cast<int>(jn.GetInt("depth"));
    if (node.leaf) {
      const json::Value* probs = jn.AsObject().Find("probs");
      if (probs == nullptr || !probs->is_array()) {
        return Status::ParseError("leaf without probabilities");
      }
      node.row = static_cast<uint32_t>(tree.leaf_probs_.size());
      for (const json::Value& p : probs->AsArray()) {
        if (!p.is_number()) return Status::ParseError("non-numeric probability");
        tree.leaf_probs_.push_back(p.AsDouble());
      }
      const size_t arity = tree.leaf_probs_.size() - node.row;
      if (arity != static_cast<size_t>(tree.num_classes_)) {
        return Status::ParseError("leaf probability arity mismatch");
      }
    } else {
      node.feature = static_cast<int>(jn.GetInt("feature", -1));
      node.threshold = jn.GetDouble("threshold");
      node.left = static_cast<int>(jn.GetInt("left", -1));
      node.right = static_cast<int>(jn.GetInt("right", -1));
      if (node.left < 0 || node.left >= count || node.right < 0 ||
          node.right >= count || node.feature < 0) {
        return Status::ParseError("tree node with invalid links");
      }
    }
    tree.nodes_.push_back(node);
  }
  return tree;
}

}  // namespace trips::annotation
