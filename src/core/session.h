// Sessions: the per-request mutable state of a translation service. A session
// borrows an immutable core::Engine (shared with any number of sibling
// sessions) and adds what one client conversation needs on top of it —
// batch-learned mobility knowledge for BatchSession, per-device stream
// buffers for StreamSession. Both translate through the engine's block
// pipeline. Sessions are created by core::Service (stream sessions also by
// cluster::Cluster, one per venue) and must not outlive it: they fan work out
// over its thread pool.
//
// Both session types are internally synchronized: a BatchSession serializes
// its Submit calls (each Submit is parallel inside), a StreamSession may be
// fed records from several ingest threads at once.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace trips::core {

/// One batch translation request: the positioning sequences of the devices to
/// translate (one sequence per device, as produced by config::DataSelector).
struct TranslationRequest {
  std::vector<positioning::PositioningSequence> sequences;
  /// Build request-local mobility knowledge from this batch before
  /// complementing ("referring to other generated mobility semantics
  /// sequences", §2) and keep it as the session's knowledge for later
  /// requests. When false — or when the batch exhibits no transitions — the
  /// session's current knowledge is used unchanged.
  bool learn_knowledge = true;
};

/// What one batch request produced.
struct TranslationResponse {
  /// Per-device results, sorted by device id (deterministic regardless of
  /// input order and worker count).
  std::vector<TranslationResult> results;
  /// Total raw records across all input sequences.
  size_t total_records = 0;
  /// Wall-clock time spent inside Submit, in milliseconds.
  double elapsed_ms = 0;
  /// Threads that cooperated on the request (pool workers + the caller).
  size_t workers_used = 1;
};

/// Batch translation over a shared engine: the engine's three layers run over
/// the whole request — clean+annotate every sequence, learn knowledge from the
/// batch, complement every sequence — with the per-sequence phases fanned out
/// over the service's thread pool and the session holding the learned
/// knowledge between requests.
class BatchSession {
 public:
  /// `pool` must outlive the session (both normally owned by the Service).
  /// `metrics` (may be null) receives the per-stage translation metrics;
  /// sessions sharing a registry aggregate into the same named metrics.
  BatchSession(std::shared_ptr<const Engine> engine, util::ThreadPool* pool,
               std::shared_ptr<obs::MetricsRegistry> metrics = nullptr);

  /// Translates every sequence of the request. Thread-safe; concurrent
  /// Submit calls on the same session are serialized.
  Result<TranslationResponse> Submit(const TranslationRequest& request);

  /// The engine this session translates with.
  const Engine& engine() const { return *engine_; }
  /// Knowledge the session currently complements with (baseline before the
  /// first learning request). Not synchronized with a running Submit.
  const complement::MobilityKnowledge& knowledge() const { return knowledge_; }
  /// Replaces the session's knowledge — e.g. to warm-start from persisted
  /// knowledge or to carry state onto a session over a retrained engine.
  void ResetKnowledge(complement::MobilityKnowledge knowledge);
  /// Sequences translated by this session so far (safe to read while another
  /// thread is inside Submit).
  size_t translated_count() const { return translated_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<const Engine> engine_;
  util::ThreadPool* pool_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // may be null
  TranslationStageMetrics stages_;   // resolved pointers; zeros when no registry
  obs::Histogram* submit_ns_ = nullptr;  // whole-Submit wall time
  std::mutex mu_;  // serializes Submit
  complement::MobilityKnowledge knowledge_;
  std::atomic<size_t> translated_{0};
};

/// Streaming options (flush policy of a StreamSession).
struct StreamOptions {
  /// A device whose newest record is older than this at Poll time is
  /// considered departed; its buffer is translated and emitted.
  DurationMs flush_after = 10 * kMillisPerMinute;
  /// A device buffer reaching this many records is translated immediately
  /// (bounded memory for devices that never leave).
  size_t max_buffer_records = 20'000;
  /// Buffers smaller than this are dropped, not translated, when an age-based
  /// flush pops them (Poll deciding a device has departed — a couple of stray
  /// fixes carry no semantics). It rules only a buffer that starts a visit:
  /// a buffer that reaches max_buffer_records, the records a device sends
  /// after a cap flush without first going idle for flush_after (the tail of
  /// a visit already translated), and every remainder FlushAll pops are
  /// translated regardless.
  size_t min_flush_records = 4;
  /// Device-hash sub-maps the ingest buffers are split into, each with its
  /// own mutex, so concurrent ingest threads touching different devices never
  /// contend on one lock. 0 behaves as 1 (a single map). Flush output is
  /// byte-identical across any shard count: flushes gather from every shard
  /// and re-establish global device-id order before delivering.
  size_t buffer_shards = 8;
};

/// Incremental translation over a shared engine: records arrive one at a time
/// from a live positioning feed; per-device buffers are translated and
/// emitted once the device goes quiet or its buffer grows too large.
///
/// The ingest path only stages: each device's buffer is one vector of raw
/// records in a hash map keyed by device id, split over `buffer_shards`
/// mutex-guarded shards, so an Ingest is one hash lookup and one append under
/// one shard lock. A flush pops the released buffers, restores device-id
/// order, and translates them over the thread pool, one buffer per task:
/// each translating thread converts its buffer into a per-thread columnar
/// positioning::RecordBlock and runs the engine's block pipeline on it.
///
///     auto stream = service.NewStreamSession();
///     for (const auto& [device, record] : feed) {
///       stream->Ingest(device, record);
///       for (auto& result : *stream->Poll(record.timestamp)) Emit(result);
///     }
///     for (auto& result : *stream->FlushAll()) Emit(result);
///
/// Alternatively install a sink with SetSink to receive every flushed result
/// through a callback; Ingest/Poll/FlushAll then return empty vectors. Either
/// way a flush's results reach the caller on the thread that flushed, in
/// device-id order, after the whole flush is translated.
class StreamSession {
 public:
  /// Receives flushed results when installed via SetSink.
  using Sink = std::function<void(TranslationResult)>;

  /// Buffers are translated with the engine's baseline knowledge. `pool` (may
  /// be null; normally the owning Service's pool) translates the buffers of
  /// one flush in parallel, and the cleaning inside long ones; without a pool
  /// a flush translates its buffers one after another. `metrics` (may be
  /// null) receives the stream ingest metrics — including the true
  /// ingest-to-result latency: each device buffer is stamped when its FIRST
  /// record arrives, and the stamp-to-delivery time of every flushed buffer
  /// lands in stream.ingest_to_result_ns.
  explicit StreamSession(std::shared_ptr<const Engine> engine,
                         StreamOptions options = {},
                         util::ThreadPool* pool = nullptr,
                         std::shared_ptr<obs::MetricsRegistry> metrics = nullptr);

  /// Installs (or, with nullptr, removes) the delivery callback. The sink is
  /// invoked on the thread that called the flushing Ingest/Poll/FlushAll,
  /// never on a thread the flush's translation fanned out to, one result at
  /// a time, in device-id order per flush, with no session lock held.
  void SetSink(Sink sink);

  /// Buffers one record. Returns the translation of the device's buffer when
  /// ingestion itself forced a flush (buffer cap reached), else no value.
  /// InvalidArgument for an empty device id: the record is not buffered and
  /// counts under stream.rejected_records.
  Result<std::vector<TranslationResult>> Ingest(const std::string& device,
                                                const positioning::RawRecord& record);

  /// Flushes every device idle at `now` and returns their translations in
  /// device-id order. An idle buffer shorter than min_flush_records is
  /// dropped (stream.dropped_small_buffers) unless it is the remainder of a
  /// cap flush.
  Result<std::vector<TranslationResult>> Poll(TimestampMs now);

  /// Flushes everything regardless of idleness (end of stream), in device-id
  /// order. Translates every remainder, even buffers shorter than
  /// min_flush_records.
  Result<std::vector<TranslationResult>> FlushAll();

  /// Devices currently buffered.
  size_t PendingDevices() const;
  /// Total buffered records.
  size_t PendingRecords() const;
  /// Sequences emitted so far (flushed and translated).
  size_t EmittedCount() const;

 private:
  struct Buffer {
    /// The staged records, in arrival order; device_id is set by the first.
    positioning::PositioningSequence records;
    TimestampMs newest = 0;
    /// obs::NowNanos() at the FIRST record's arrival (0 = not traced).
    uint64_t ingest_ns = 0;
    /// The device's previous buffer was cap-flushed: this one holds the rest
    /// of a visit already being translated, so Poll translates it however
    /// short. A capped entry stays in the map, empty, until Poll finds it
    /// idle; a record that arrives there flush_after or more past `newest`
    /// starts a new visit instead and clears the mark. An empty entry is
    /// never counted as pending or dropped.
    bool capped = false;
  };
  /// One device-hash shard of the ingest buffers. Ingest locks only the
  /// owning device's shard, so concurrent feeds on different devices proceed
  /// in parallel; flush paths sweep the shards one at a time.
  struct BufferShard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Buffer> buffers;
    /// Records currently buffered in this shard (maintained by ingest/flush;
    /// exported as stream.shardNN.buffered_records). Null without a registry.
    obs::Gauge* buffered_records = nullptr;
  };
  /// A buffer popped for translation: the staged records plus the trace
  /// stamp that rides along to the latency histogram.
  struct PoppedBuffer {
    positioning::PositioningSequence records;
    uint64_t ingest_ns = 0;
  };
  /// Resolved stream metric pointers (all null without a registry).
  struct StreamMetrics {
    obs::Counter* records_ingested = nullptr;
    obs::Counter* rejected_records = nullptr;  // empty device id
    obs::Gauge* buffered_records = nullptr;  // across all shards
    obs::Counter* flushes = nullptr;         // buffers translated+delivered
    obs::Counter* flush_records = nullptr;   // records in those buffers
    obs::Counter* dropped_small_buffers = nullptr;
    obs::Histogram* ingest_to_result_ns = nullptr;
  };

  // The shard owning `device`'s buffer.
  BufferShard& ShardFor(const std::string& device);
  // Updates the occupancy gauges for `delta` records entering (positive) or
  // leaving (negative) `shard`.
  void TrackBuffered(BufferShard& shard, int64_t delta);
  // Takes `buffer`'s records out of `shard`'s occupancy and moves them onto
  // `out` for translation, or drops them (counted) when fewer than
  // `min_records`. Leaves `buffer` empty. Requires shard.mu held and a
  // non-empty buffer.
  void PopBufferLocked(BufferShard& shard, Buffer& buffer, size_t min_records,
                       std::vector<PoppedBuffer>* out);
  // Restores device-id order over buffers gathered from the unordered shard
  // maps.
  static void SortPoppedByDevice(std::vector<PoppedBuffer>* popped);
  // Translates popped buffers over the pool (no shard lock held), then, on
  // the calling thread, records the flush metrics and routes the results to
  // the sink when one is installed, else back to the caller. `popped` must
  // be in device-id order.
  std::vector<TranslationResult> TranslateAndDeliver(std::vector<PoppedBuffer> popped);

  std::shared_ptr<const Engine> engine_;
  StreamOptions options_;
  util::ThreadPool* pool_ = nullptr;      // may be null (serial flushes)
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // may be null
  StreamMetrics stream_metrics_;
  TranslationStageMetrics stages_;        // per-stage translation metrics
  std::vector<BufferShard> shards_;       // fixed size >= 1 after construction
  mutable std::mutex mu_;                 // guards sink_ and emitted_
  Sink sink_;
  size_t emitted_ = 0;
};

}  // namespace trips::core
