#include "annotation/knn.h"

#include <algorithm>
#include <cmath>

namespace trips::annotation {

KnnClassifier::KnnClassifier(KnnOptions options) : options_(options) {}

std::vector<double> KnnClassifier::Standardize(std::span<const double> x) const {
  std::vector<double> z(num_features_, 0);
  for (size_t f = 0; f < num_features_ && f < x.size(); ++f) {
    z[f] = (x[f] - mean_[f]) / stddev_[f];
  }
  return z;
}

Status KnnClassifier::Train(const std::vector<Sample>& samples,
                            const std::vector<int>& labels, int num_classes) {
  if (samples.empty()) return Status::InvalidArgument("no training samples");
  if (samples.size() != labels.size()) {
    return Status::InvalidArgument("samples/labels size mismatch");
  }
  if (num_classes < 2) return Status::InvalidArgument("need >= 2 classes");
  if (options_.k == 0) return Status::InvalidArgument("k must be positive");
  num_features_ = samples[0].size();

  mean_.assign(num_features_, 0);
  stddev_.assign(num_features_, 0);
  for (const Sample& s : samples) {
    if (s.size() != num_features_) {
      return Status::InvalidArgument("ragged feature vectors");
    }
    for (size_t f = 0; f < num_features_; ++f) mean_[f] += s[f];
  }
  for (double& m : mean_) m /= static_cast<double>(samples.size());
  for (const Sample& s : samples) {
    for (size_t f = 0; f < num_features_; ++f) {
      double d = s[f] - mean_[f];
      stddev_[f] += d * d;
    }
  }
  for (double& sd : stddev_) {
    sd = std::sqrt(sd / static_cast<double>(samples.size()));
    if (sd < 1e-9) sd = 1;
  }

  num_classes_ = num_classes;
  samples_.clear();
  samples_.reserve(samples.size());
  for (const Sample& s : samples) samples_.push_back(Standardize(s));
  labels_ = labels;
  for (int label : labels_) {
    if (label < 0 || label >= num_classes) {
      return Status::InvalidArgument("label out of range");
    }
  }
  return Status::OK();
}

void KnnClassifier::PredictProbaInto(std::span<const double> x,
                                     std::span<double> probs) const {
  std::fill(probs.begin(), probs.end(), 0.0);
  if (samples_.empty()) return;
  std::vector<double> z = Standardize(x);

  // Partial sort of the k nearest (squared) distances.
  std::vector<std::pair<double, int>> dists;
  dists.reserve(samples_.size());
  for (size_t i = 0; i < samples_.size(); ++i) {
    double d2 = 0;
    for (size_t f = 0; f < num_features_; ++f) {
      double d = samples_[i][f] - z[f];
      d2 += d * d;
    }
    dists.emplace_back(d2, labels_[i]);
  }
  size_t k = std::min(options_.k, dists.size());
  std::partial_sort(dists.begin(), dists.begin() + static_cast<long>(k), dists.end());

  double total = 0;
  for (size_t i = 0; i < k; ++i) {
    double weight =
        options_.distance_weighted ? 1.0 / (std::sqrt(dists[i].first) + 1e-6) : 1.0;
    probs[dists[i].second] += weight;
    total += weight;
  }
  if (total > 0) {
    for (double& p : probs) p /= total;
  }
}

}  // namespace trips::annotation

namespace trips::annotation {

json::Value KnnClassifier::ToJson() const {
  json::Object root;
  root["type"] = Name();
  root["num_classes"] = num_classes_;
  root["num_features"] = static_cast<int64_t>(num_features_);
  root["k"] = static_cast<int64_t>(options_.k);
  root["distance_weighted"] = options_.distance_weighted;
  auto doubles = [](const std::vector<double>& values) {
    json::Array out;
    for (double v : values) out.push_back(v);
    return out;
  };
  root["mean"] = doubles(mean_);
  root["stddev"] = doubles(stddev_);
  json::Array samples;
  for (const std::vector<double>& s : samples_) samples.push_back(doubles(s));
  root["samples"] = std::move(samples);
  json::Array labels;
  for (int label : labels_) labels.push_back(label);
  root["labels"] = std::move(labels);
  return root;
}

Result<KnnClassifier> KnnClassifier::FromJson(const json::Value& value) {
  if (!value.is_object() || value.GetString("type") != "knn") {
    return Status::ParseError("not a serialized knn model");
  }
  KnnOptions options;
  options.k = static_cast<size_t>(value.GetInt("k", 5));
  options.distance_weighted = value.GetBool("distance_weighted", true);
  KnnClassifier model(options);
  model.num_classes_ = static_cast<int>(value.GetInt("num_classes"));
  model.num_features_ = static_cast<size_t>(value.GetInt("num_features"));
  auto read_doubles = [&value](const std::string& key,
                               std::vector<double>* out) -> Status {
    const json::Value* arr = value.AsObject().Find(key);
    if (arr == nullptr || !arr->is_array()) {
      return Status::ParseError("missing numeric array '" + key + "'");
    }
    for (const json::Value& v : arr->AsArray()) {
      if (!v.is_number()) return Status::ParseError("non-numeric '" + key + "'");
      out->push_back(v.AsDouble());
    }
    return Status::OK();
  };
  TRIPS_RETURN_NOT_OK(read_doubles("mean", &model.mean_));
  TRIPS_RETURN_NOT_OK(read_doubles("stddev", &model.stddev_));
  const json::Value* samples = value.AsObject().Find("samples");
  const json::Value* labels = value.AsObject().Find("labels");
  if (samples == nullptr || !samples->is_array() || labels == nullptr ||
      !labels->is_array() ||
      samples->AsArray().size() != labels->AsArray().size() ||
      samples->AsArray().empty()) {
    return Status::ParseError("knn samples/labels malformed");
  }
  for (const json::Value& js : samples->AsArray()) {
    if (!js.is_array()) return Status::ParseError("knn sample must be an array");
    std::vector<double> s;
    for (const json::Value& v : js.AsArray()) {
      if (!v.is_number()) return Status::ParseError("non-numeric knn sample");
      s.push_back(v.AsDouble());
    }
    if (s.size() != model.num_features_) {
      return Status::ParseError("knn sample arity mismatch");
    }
    model.samples_.push_back(std::move(s));
  }
  for (const json::Value& jl : labels->AsArray()) {
    if (!jl.is_number()) return Status::ParseError("non-numeric knn label");
    model.labels_.push_back(static_cast<int>(jl.AsInt()));
  }
  return model;
}

}  // namespace trips::annotation
