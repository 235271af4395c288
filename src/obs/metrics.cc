#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace trips::obs {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace internal {

uint32_t ThisThreadSlot() {
  // Round-robin assignment spreads recording threads evenly over the shards
  // (a hash of thread::id would collide for small thread counts).
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

}  // namespace internal

// ---- Histogram --------------------------------------------------------------

namespace {

// The pow-1.25 bucket ladder, built once with integer arithmetic so every
// build and platform agrees on the boundaries: bounds[0] = 64 ns, then
// bounds[i+1] = max(bounds[i]+1, bounds[i]*5/4). 96 steps reach ~80 s; the
// last bucket is open-ended.
std::array<uint64_t, Histogram::kBuckets> BuildBounds() {
  std::array<uint64_t, Histogram::kBuckets> bounds{};
  uint64_t b = 64;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    bounds[i] = b;
    b = std::max(b + 1, b / 4 * 5);
  }
  return bounds;
}

const std::array<uint64_t, Histogram::kBuckets>& Bounds() {
  static const std::array<uint64_t, Histogram::kBuckets> bounds = BuildBounds();
  return bounds;
}

}  // namespace

uint64_t Histogram::BucketUpperBound(size_t i) {
  return Bounds()[std::min(i, kBuckets - 1)];
}

size_t Histogram::BucketOf(uint64_t value) {
  const auto& bounds = Bounds();
  // First bucket whose inclusive upper bound admits `value`; the last bucket
  // absorbs everything beyond the ladder.
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end() - 1, value) -
      bounds.begin());
}

HistogramSummary Histogram::Summarize() const {
  // Merge the shards. The merged arrays depend only on what was recorded
  // (addition commutes), so the summary is interleaving-independent.
  std::array<uint64_t, kBuckets> buckets{};
  HistogramSummary out;
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    out.count += shard.count.load(std::memory_order_relaxed);
    out.sum += shard.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, shard.max.load(std::memory_order_relaxed));
  }
  if (out.count == 0) return out;
  out.mean = static_cast<double>(out.sum) / static_cast<double>(out.count);

  // Quantile = upper bound of the bucket holding the rank-th recording,
  // clamped to the exact max (so p99 of a single value IS that value).
  auto quantile = [&](double q) -> uint64_t {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(out.count)));
    if (rank < 1) rank = 1;
    if (rank > out.count) rank = out.count;
    uint64_t cum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      cum += buckets[i];
      if (cum >= rank) return std::min(BucketUpperBound(i), out.max);
    }
    return out.max;
  };
  out.p50 = quantile(0.50);
  out.p95 = quantile(0.95);
  out.p99 = quantile(0.99);
  return out;
}

// ---- MetricsSnapshot --------------------------------------------------------

namespace {

// Binary search over a name-sorted (name, value) vector; nullptr when absent.
template <typename V>
const V* FindByName(const std::vector<std::pair<std::string, V>>& items,
                    const std::string& name) {
  auto it = std::lower_bound(
      items.begin(), items.end(), name,
      [](const std::pair<std::string, V>& a, const std::string& b) {
        return a.first < b;
      });
  if (it == items.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

const uint64_t* MetricsSnapshot::counter(const std::string& name) const {
  return FindByName(counters, name);
}

const int64_t* MetricsSnapshot::gauge(const std::string& name) const {
  return FindByName(gauges, name);
}

const HistogramSummary* MetricsSnapshot::histogram(const std::string& name) const {
  return FindByName(histograms, name);
}

uint64_t MetricsSnapshot::counter_or(const std::string& name,
                                     uint64_t fallback) const {
  const uint64_t* v = counter(name);
  return v != nullptr ? *v : fallback;
}

int64_t MetricsSnapshot::gauge_or(const std::string& name,
                                  int64_t fallback) const {
  const int64_t* v = gauge(name);
  return v != nullptr ? *v : fallback;
}

// ---- MetricsRegistry --------------------------------------------------------

MetricsRegistry::MetricsRegistry(bool enabled) : enabled_(enabled) {}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(&enabled_);
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(&enabled_);
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(&enabled_);
  return slot.get();
}

void MetricsRegistry::SetCallback(const std::string& name,
                                  std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_[name] = std::move(fn);
}

void MetricsRegistry::RemoveCallback(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.erase(name);
}

MetricsSnapshot MetricsRegistry::Snap() const {
  MetricsSnapshot snap;
  std::vector<std::pair<std::string, std::function<int64_t()>>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.emplace_back(name, c->Value());
    }
    snap.gauges.reserve(gauges_.size() + callbacks_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.emplace_back(name, g->Value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      snap.histograms.emplace_back(name, h->Summarize());
    }
    callbacks.assign(callbacks_.begin(), callbacks_.end());
  }
  // Callbacks run outside the lock (they may take other subsystems' locks);
  // fold them into the gauge list and restore name order.
  for (const auto& [name, fn] : callbacks) snap.gauges.emplace_back(name, fn());
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

}  // namespace trips::obs
