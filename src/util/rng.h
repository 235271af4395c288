// Deterministic random number generation for simulation and benchmarks.
// All stochastic TRIPS components (error model, mobility generator, learning
// models) take an explicit Rng so runs are reproducible from a seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace trips {

/// Seedable pseudo-random generator wrapping std::mt19937_64 with the
/// distributions TRIPS needs.
class Rng {
 public:
  /// Constructs a generator from a fixed seed (default: arbitrary constant,
  /// so default-constructed Rngs are reproducible too).
  explicit Rng(uint64_t seed = 0x5eedu) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Normal (Gaussian) sample with the given mean and standard deviation.
  /// Scales a standard-normal draw, so a stddev of 0 returns `mean` exactly
  /// and consumes the same draws as any other stddev
  /// (std::normal_distribution itself requires stddev > 0).
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> unit;
    return mean + stddev * unit(engine_);
  }

  /// Bernoulli trial: true with probability p (p clamped to [0,1]).
  bool Chance(double p) {
    if (p <= 0) return false;
    if (p >= 1) return true;
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Exponential sample with the given rate (lambda).
  double Exponential(double lambda) {
    std::exponential_distribution<double> d(lambda);
    return d(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Non-positive weights are treated as zero; if all are zero, returns 0.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Shuffles a vector in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Access to the raw engine for std:: algorithms.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace trips
