// k-nearest-neighbours classifier with standardized features and optional
// inverse-distance weighting — the lazy-learning alternative among the event
// identification models (instance-based, no training beyond memorization,
// which suits the Event Editor's designate-a-few-segments workflow).
#pragma once

#include "annotation/classifier.h"
#include "json/json.h"

namespace trips::annotation {

/// kNN hyper-parameters.
struct KnnOptions {
  size_t k = 5;
  /// Weight neighbours by 1/(distance + epsilon) instead of uniformly.
  bool distance_weighted = true;
};

/// Standardized-Euclidean kNN.
class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(KnnOptions options = {});

  Status Train(const std::vector<Sample>& samples, const std::vector<int>& labels,
               int num_classes) override;
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::string Name() const override { return "knn"; }
  int NumClasses() const override { return num_classes_; }

  /// Number of memorized training samples.
  size_t SampleCount() const { return samples_.size(); }

  /// Serializes the memorized (standardized) training set.
  json::Value ToJson() const;
  /// Restores a model serialized with ToJson.
  static Result<KnnClassifier> FromJson(const json::Value& value);

 private:
  std::vector<double> Standardize(std::span<const double> x) const;

  KnnOptions options_;
  int num_classes_ = 0;
  size_t num_features_ = 0;
  std::vector<double> mean_, stddev_;
  std::vector<std::vector<double>> samples_;  // standardized
  std::vector<int> labels_;
};

}  // namespace trips::annotation
