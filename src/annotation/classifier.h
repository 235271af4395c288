// Common interface of the learning-based identification models (§3: "a
// learning-based identification model, for which the training mobility event
// data is collected through the Event Editor"). All models are implemented
// from scratch in this repository.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/rng.h"

namespace trips::annotation {

/// A training/inference sample: dense feature values.
using Sample = std::vector<double>;

/// Multiclass classifier over dense feature vectors.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fits the model. `labels[i]` is the class of `samples[i]`, in
  /// [0, num_classes). Fails on empty or ragged input.
  virtual Status Train(const std::vector<Sample>& samples,
                       const std::vector<int>& labels, int num_classes) = 0;

  /// Writes the per-class probability estimates of `x` (summing to 1) into
  /// `out`, which holds NumClasses() entries. The one prediction routine of
  /// each model; undefined before Train succeeds.
  virtual void PredictProbaInto(std::span<const double> x,
                                std::span<double> out) const = 0;

  /// PredictProbaInto into a fresh vector.
  std::vector<double> PredictProba(const Sample& x) const;

  /// The most likely class for `x`: the first maximum of its probabilities.
  int Predict(const Sample& x) const;

  /// Model family name, e.g. "decision_tree".
  virtual std::string Name() const = 0;

  /// Number of classes the model was trained with (0 before training).
  virtual int NumClasses() const = 0;
};

/// Room for one prediction's class probabilities: on the stack for up to
/// kInline classes, on the heap beyond that.
class ProbaBuffer {
 public:
  explicit ProbaBuffer(size_t classes)
      : heap_(classes > kInline ? classes : 0),
        span_(classes > kInline ? heap_.data() : inline_.data(), classes) {}
  ProbaBuffer(const ProbaBuffer&) = delete;
  ProbaBuffer& operator=(const ProbaBuffer&) = delete;

  std::span<double> span() const { return span_; }

 private:
  static constexpr size_t kInline = 16;
  std::array<double, kInline> inline_;
  std::vector<double> heap_;
  std::span<double> span_;
};

/// Index of the first maximum of `probs` (0 when empty), std::max_element's
/// rule.
inline int ArgMax(std::span<const double> probs) {
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

/// Simple holdout accuracy of a trained classifier.
double Accuracy(const Classifier& model, const std::vector<Sample>& samples,
                const std::vector<int>& labels);

/// Per-class precision/recall/F1.
struct ClassMetrics {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
  size_t support = 0;
};

/// Computes per-class metrics of a trained classifier on a labeled set.
std::vector<ClassMetrics> EvaluatePerClass(const Classifier& model,
                                           const std::vector<Sample>& samples,
                                           const std::vector<int>& labels,
                                           int num_classes);

}  // namespace trips::annotation
