// Multinomial logistic regression (softmax) trained by mini-batch gradient
// descent with feature standardization, implemented from scratch. A linear
// alternative to the tree models for event identification.
#pragma once

#include "annotation/classifier.h"
#include "json/json.h"

namespace trips::annotation {

/// Optimizer hyper-parameters.
struct LogisticOptions {
  double learning_rate = 0.1;
  int epochs = 300;
  double l2 = 1e-4;
  uint64_t seed = 0x10915;
};

/// Softmax regression classifier.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(LogisticOptions options = {});

  Status Train(const std::vector<Sample>& samples, const std::vector<int>& labels,
               int num_classes) override;
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::string Name() const override { return "logistic_regression"; }
  int NumClasses() const override { return num_classes_; }

  /// Serializes the trained weights and standardization statistics.
  json::Value ToJson() const;
  /// Restores a model serialized with ToJson.
  static Result<LogisticRegression> FromJson(const json::Value& value);

 private:
  std::vector<double> Standardize(std::span<const double> x) const;

  LogisticOptions options_;
  int num_classes_ = 0;
  size_t num_features_ = 0;
  std::vector<double> mean_, stddev_;
  // weights_[c * (F+1) + f]; the last column is the bias.
  std::vector<double> weights_;
};

}  // namespace trips::annotation
