#include "annotation/logistic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace trips::annotation {

LogisticRegression::LogisticRegression(LogisticOptions options) : options_(options) {}

std::vector<double> LogisticRegression::Standardize(std::span<const double> x) const {
  std::vector<double> z(num_features_, 0);
  for (size_t f = 0; f < num_features_ && f < x.size(); ++f) {
    z[f] = (x[f] - mean_[f]) / stddev_[f];
  }
  return z;
}

Status LogisticRegression::Train(const std::vector<Sample>& samples,
                                 const std::vector<int>& labels, int num_classes) {
  if (samples.empty()) return Status::InvalidArgument("no training samples");
  if (samples.size() != labels.size()) {
    return Status::InvalidArgument("samples/labels size mismatch");
  }
  if (num_classes < 2) return Status::InvalidArgument("need >= 2 classes");
  num_features_ = samples[0].size();
  num_classes_ = num_classes;

  // Standardization statistics.
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
    if (sd < 1e-9) sd = 1;  // constant feature
  }

  const size_t stride = num_features_ + 1;
  weights_.assign(static_cast<size_t>(num_classes_) * stride, 0);

  std::vector<std::vector<double>> z(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) z[i] = Standardize(samples[i]);

  Rng rng(options_.seed);
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> logits(num_classes_);

  const double lr = options_.learning_rate;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t i : order) {
      // Forward: softmax over class logits.
      for (int c = 0; c < num_classes_; ++c) {
        const double* w = &weights_[static_cast<size_t>(c) * stride];
        double dot = w[num_features_];  // bias
        for (size_t f = 0; f < num_features_; ++f) dot += w[f] * z[i][f];
        logits[c] = dot;
      }
      double max_logit = *std::max_element(logits.begin(), logits.end());
      double denom = 0;
      for (int c = 0; c < num_classes_; ++c) {
        logits[c] = std::exp(logits[c] - max_logit);
        denom += logits[c];
      }
      // Backward: SGD step on cross-entropy + L2.
      for (int c = 0; c < num_classes_; ++c) {
        double p = logits[c] / denom;
        double err = p - (labels[i] == c ? 1.0 : 0.0);
        double* w = &weights_[static_cast<size_t>(c) * stride];
        for (size_t f = 0; f < num_features_; ++f) {
          w[f] -= lr * (err * z[i][f] + options_.l2 * w[f]);
        }
        w[num_features_] -= lr * err;
      }
    }
  }
  return Status::OK();
}

void LogisticRegression::PredictProbaInto(std::span<const double> x,
                                          std::span<double> probs) const {
  std::fill(probs.begin(), probs.end(), 0.0);
  if (num_classes_ == 0) return;
  std::vector<double> z = Standardize(x);
  const size_t stride = num_features_ + 1;
  // The logits go into `probs`, then the softmax rewrites them in place.
  for (int c = 0; c < num_classes_; ++c) {
    const double* w = &weights_[static_cast<size_t>(c) * stride];
    double dot = w[num_features_];
    for (size_t f = 0; f < num_features_; ++f) dot += w[f] * z[f];
    probs[c] = dot;
  }
  double max_logit = *std::max_element(probs.begin(), probs.begin() + num_classes_);
  double denom = 0;
  for (int c = 0; c < num_classes_; ++c) {
    probs[c] = std::exp(probs[c] - max_logit);
    denom += probs[c];
  }
  for (double& p : probs) p /= denom;
}

}  // namespace trips::annotation

namespace trips::annotation {

namespace {

json::Array DoublesToJson(const std::vector<double>& values) {
  json::Array out;
  for (double v : values) out.push_back(v);
  return out;
}

Status DoublesFromJson(const json::Value& parent, const std::string& key,
                       std::vector<double>* out) {
  const json::Value* arr = parent.AsObject().Find(key);
  if (arr == nullptr || !arr->is_array()) {
    return Status::ParseError("missing numeric array '" + key + "'");
  }
  out->clear();
  for (const json::Value& v : arr->AsArray()) {
    if (!v.is_number()) return Status::ParseError("non-numeric entry in '" + key + "'");
    out->push_back(v.AsDouble());
  }
  return Status::OK();
}

}  // namespace

json::Value LogisticRegression::ToJson() const {
  json::Object root;
  root["type"] = Name();
  root["num_classes"] = num_classes_;
  root["num_features"] = static_cast<int64_t>(num_features_);
  root["mean"] = DoublesToJson(mean_);
  root["stddev"] = DoublesToJson(stddev_);
  root["weights"] = DoublesToJson(weights_);
  return root;
}

Result<LogisticRegression> LogisticRegression::FromJson(const json::Value& value) {
  if (!value.is_object() || value.GetString("type") != "logistic_regression") {
    return Status::ParseError("not a serialized logistic regression");
  }
  LogisticRegression model;
  model.num_classes_ = static_cast<int>(value.GetInt("num_classes"));
  model.num_features_ = static_cast<size_t>(value.GetInt("num_features"));
  TRIPS_RETURN_NOT_OK(DoublesFromJson(value, "mean", &model.mean_));
  TRIPS_RETURN_NOT_OK(DoublesFromJson(value, "stddev", &model.stddev_));
  TRIPS_RETURN_NOT_OK(DoublesFromJson(value, "weights", &model.weights_));
  if (model.mean_.size() != model.num_features_ ||
      model.stddev_.size() != model.num_features_ ||
      model.weights_.size() !=
          static_cast<size_t>(model.num_classes_) * (model.num_features_ + 1)) {
    return Status::ParseError("logistic regression arity mismatch");
  }
  return model;
}

}  // namespace trips::annotation
