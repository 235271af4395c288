#include "annotation/classifier.h"

namespace trips::annotation {

std::vector<double> Classifier::PredictProba(const Sample& x) const {
  std::vector<double> probs(static_cast<size_t>(NumClasses()));
  PredictProbaInto(x, probs);
  return probs;
}

int Classifier::Predict(const Sample& x) const {
  ProbaBuffer probs(static_cast<size_t>(NumClasses()));
  PredictProbaInto(x, probs.span());
  return ArgMax(probs.span());
}

double Accuracy(const Classifier& model, const std::vector<Sample>& samples,
                const std::vector<int>& labels) {
  if (samples.empty() || samples.size() != labels.size()) return 0;
  size_t hits = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (model.Predict(samples[i]) == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples.size());
}

std::vector<ClassMetrics> EvaluatePerClass(const Classifier& model,
                                           const std::vector<Sample>& samples,
                                           const std::vector<int>& labels,
                                           int num_classes) {
  std::vector<size_t> tp(num_classes, 0), fp(num_classes, 0), fn(num_classes, 0);
  std::vector<ClassMetrics> out(num_classes);
  for (size_t i = 0; i < samples.size() && i < labels.size(); ++i) {
    int pred = model.Predict(samples[i]);
    int truth = labels[i];
    if (truth >= 0 && truth < num_classes) ++out[truth].support;
    if (pred == truth) {
      if (truth >= 0 && truth < num_classes) ++tp[truth];
    } else {
      if (pred >= 0 && pred < num_classes) ++fp[pred];
      if (truth >= 0 && truth < num_classes) ++fn[truth];
    }
  }
  for (int c = 0; c < num_classes; ++c) {
    double p = tp[c] + fp[c] > 0
                   ? static_cast<double>(tp[c]) / static_cast<double>(tp[c] + fp[c])
                   : 0;
    double r = tp[c] + fn[c] > 0
                   ? static_cast<double>(tp[c]) / static_cast<double>(tp[c] + fn[c])
                   : 0;
    out[c].precision = p;
    out[c].recall = r;
    out[c].f1 = (p + r) > 0 ? 2 * p * r / (p + r) : 0;
  }
  return out;
}

}  // namespace trips::annotation
