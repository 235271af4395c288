// trips::obs — the unified metrics & stage-tracing subsystem. Every layer of
// the serving stack (util::ThreadPool, core::Engine translation stages, the
// StreamSession ingest path, store::TripStore, dsm routing/spatial caches,
// cluster::Cluster) records into one obs::MetricsRegistry, and one
// deterministic snapshot (obs/statsz.h) exports the lot as JSON.
//
// Design constraints, in order:
//   1. Hot-path cost. Counters and histograms are lock-free and
//      thread-sharded: each recording thread owns a cache-line-padded slot,
//      so concurrent translation workers never contend on a shared line. One
//      Counter::Add is a single relaxed fetch_add on a thread-local shard;
//      reads merge the shards.
//   2. Determinism. A snapshot depends only on WHAT was recorded, never on
//      which thread recorded it or how the shards interleaved: counters sum,
//      histogram quantiles are computed from the merged bucket counts, and
//      the exported JSON orders metrics by name. tests/obs_test.cc holds the
//      merge-determinism and golden-snapshot suites.
//   3. Opt-out. MetricsRegistry(false) or set_enabled(false) turns every
//      registry-owned metric into a cheap early-return; translation output
//      is byte-identical metrics on or off.
//
// Histograms are log-bucketed: fixed pow-1.25 buckets spanning nanoseconds to
// minutes (96 buckets from 64 ns to ~80 s; a pure 64-bucket ladder at ratio
// 1.25 cannot reach minutes, so the ladder is extended instead of coarsened).
// The first bucket absorbs everything below 64 ns and the last is open-ended;
// the maximum is tracked exactly, and reported quantiles clamp to it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace trips::obs {

/// Monotonic wall time in nanoseconds (steady clock) — the time base of every
/// StageTimer and trace stamp.
uint64_t NowNanos();

/// Recording slots per metric. Threads are assigned slots round-robin, so up
/// to kMetricShards recording threads touch distinct cache lines.
inline constexpr size_t kMetricShards = 16;

namespace internal {
/// This thread's fixed shard slot in [0, kMetricShards).
uint32_t ThisThreadSlot();
}  // namespace internal

/// Monotonic event counter. Thread-sharded: Add is one relaxed fetch_add on
/// the calling thread's slot; Value merges the slots. Default-constructed
/// counters are always on; registry-owned counters honour the registry's
/// enabled switch.
class Counter {
 public:
  Counter() = default;
  explicit Counter(const std::atomic<bool>* gate) : gate_(gate) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) {
    if (gate_ != nullptr && !gate_->load(std::memory_order_relaxed)) return;
    shards_[internal::ThisThreadSlot()].v.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }

  /// Sum over all shards. Concurrent Adds may or may not be included (each
  /// shard is read once; the result is a monotone-consistent snapshot).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zeroes every shard. Not linearizable against concurrent Adds; call at
  /// quiescent points (benchmark phase boundaries, test setup).
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_{};
  const std::atomic<bool>* gate_ = nullptr;
};

/// Signed level metric (queue depths, buffer occupancy). Add/Sub are
/// thread-sharded like Counter; Set is for single-writer configuration values
/// (worker counts) and must not race with concurrent Add/Sub.
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(const std::atomic<bool>* gate) : gate_(gate) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Add(int64_t delta) {
    if (gate_ != nullptr && !gate_->load(std::memory_order_relaxed)) return;
    shards_[internal::ThisThreadSlot()].v.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }
  void Sub(int64_t delta) { Add(-delta); }

  /// Overwrites the merged value (zeroes all shards, writes slot 0).
  void Set(int64_t value) {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
    shards_[0].v.store(value, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_{};
  const std::atomic<bool>* gate_ = nullptr;
};

/// Deterministic digest of one histogram, computed from the merged shards.
/// count/sum/max are exact; quantiles have log-bucket resolution (each bucket
/// is at most 25% wide) and clamp to the exact max, and depend only on the
/// merged bucket counts — never on shard interleaving.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;   ///< exact sum of recorded values
  uint64_t max = 0;   ///< exact maximum recorded value
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  double mean = 0;    ///< sum / count (0 when empty)

  bool operator==(const HistogramSummary&) const = default;
};

/// Log-bucketed latency histogram (values in nanoseconds by convention; any
/// uint64 works). Record is lock-free: three relaxed adds and one max update
/// on the calling thread's shard.
class Histogram {
 public:
  static constexpr size_t kBuckets = 96;

  Histogram() = default;
  explicit Histogram(const std::atomic<bool>* gate) : gate_(gate) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    if (!recording()) return;
    Shard& shard = shards_[internal::ThisThreadSlot()];
    shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = shard.max.load(std::memory_order_relaxed);
    while (value > seen && !shard.max.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  /// True when a Record call would actually record — StageTimer checks this
  /// before touching the clock, so a disabled registry costs no clock reads.
  bool recording() const {
    return gate_ == nullptr || gate_->load(std::memory_order_relaxed);
  }

  /// Merges the shards into a deterministic summary.
  HistogramSummary Summarize() const;

  /// Inclusive upper bound of bucket `i` (the pow-1.25 ladder). Exposed for
  /// the determinism tests and for documentation of quantile resolution.
  static uint64_t BucketUpperBound(size_t i);

  /// The bucket `value` lands in.
  static size_t BucketOf(uint64_t value);

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<Shard, kMetricShards> shards_{};
  const std::atomic<bool>* gate_ = nullptr;
};

/// RAII stage timer: records the enclosed scope's wall time into a histogram.
/// Null histogram or disabled registry: no clock reads, no recording.
///
///     { obs::StageTimer t(metrics->clean_ns); cleaner.CleanBlock(...); }
class StageTimer {
 public:
  explicit StageTimer(Histogram* histogram)
      : histogram_(histogram),
        start_ns_(histogram != nullptr && histogram->recording() ? NowNanos()
                                                                 : 0) {}
  ~StageTimer() {
    if (start_ns_ != 0) histogram_->Record(NowNanos() - start_ns_);
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

/// Lightweight per-record-batch trace context: stamps when raw data entered
/// the system, so a flushed translation result can report its true
/// ingest-to-emit latency (arrival of the OLDEST raw record -> result
/// delivery — the worst-case, SLO-relevant latency of the flush). A zero
/// stamp means "not traced" (batch requests, metrics off). Both the stamp and
/// the delivery reading come from obs::NowNanos().
struct TraceContext {
  uint64_t ingest_steady_ns = 0;  ///< obs::NowNanos() at first ingest

  bool active() const { return ingest_steady_ns != 0; }
};

/// One deterministic snapshot of a registry: metrics in name order, callback
/// gauges folded in. The JSON export (obs/statsz.h) serializes exactly this.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;

  /// Point lookups by metric name (binary search — each vector is kept in
  /// ascending name order). Consumers that read a snapshot programmatically
  /// (tests and perfbench pulling drop counters and gauges) use these instead
  /// of re-implementing the scan. The *_or forms return the fallback when the
  /// metric never recorded.
  const uint64_t* counter(const std::string& name) const;
  const int64_t* gauge(const std::string& name) const;
  const HistogramSummary* histogram(const std::string& name) const;
  uint64_t counter_or(const std::string& name, uint64_t fallback = 0) const;
  int64_t gauge_or(const std::string& name, int64_t fallback = 0) const;
};

/// Owns named metrics and hands out stable pointers to them. Lookup/creation
/// takes a lock (call at wiring time, keep the returned pointer for the hot
/// path); the metrics themselves are lock-free. The registry's enabled flag
/// gates every owned metric at recording time.
class MetricsRegistry {
 public:
  /// Enabled unless constructed with `false`.
  explicit MetricsRegistry(bool enabled = true);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. The returned pointer stays valid for the registry's
  /// lifetime; callers cache it and record lock-free.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Registers (or replaces) a pull-style gauge evaluated at snapshot time —
  /// for values another subsystem already maintains (routing cache hits,
  /// segment counts). The callback must stay valid until RemoveCallback or
  /// registry destruction, and must not reenter the registry.
  void SetCallback(const std::string& name, std::function<int64_t()> fn);
  void RemoveCallback(const std::string& name);

  /// Runtime recording switch. Disabling stops recording only; existing
  /// values remain readable and snapshots still work.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Deterministic snapshot: every metric by ascending name, histogram shards
  /// merged, callbacks evaluated.
  MetricsSnapshot Snap() const;

 private:
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  // guards the maps; metric objects are lock-free
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<int64_t()>> callbacks_;
};

}  // namespace trips::obs
