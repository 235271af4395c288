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
#include <map>
#include <memory>
#include <mutex>
#include <string>
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
  /// fixes carry no semantics). It applies to age-based flushes only: a buffer
  /// that reaches max_buffer_records, and every remainder FlushAll pops, is
  /// translated regardless.
  size_t min_flush_records = 4;
  /// Device-hash sub-maps the ingest buffers are split into, each with its
  /// own mutex, so concurrent ingest threads touching different devices never
  /// contend on one lock. 0 behaves as 1 (a single map). Flush output is
  /// byte-identical across any shard count: flushes gather from every shard
  /// and re-establish global device-id order before translating.
  size_t buffer_shards = 8;
};

/// Incremental translation over a shared engine: records arrive one at a time
/// from a live positioning feed; per-device buffers are translated and
/// emitted once the device goes quiet or its buffer grows too large. Buffers
/// are columnar (positioning::RecordBlock): ingestion appends to the columns
/// and a flushed buffer feeds the engine's block pipeline directly, so a
/// streamed sequence is never materialized as AoS records on its way in.
///
///     auto stream = service.NewStreamSession();
///     for (const auto& [device, record] : feed) {
///       stream->Ingest(device, record);
///       for (auto& result : *stream->Poll(record.timestamp)) Emit(result);
///     }
///     for (auto& result : *stream->FlushAll()) Emit(result);
///
/// Alternatively install a sink with SetSink to receive every flushed result
/// through a callback; Ingest/Poll/FlushAll then return empty vectors.
class StreamSession {
 public:
  /// Receives flushed results when installed via SetSink.
  using Sink = std::function<void(TranslationResult)>;

  /// Buffers are translated with the engine's baseline knowledge. `pool` (may
  /// be null; normally the owning Service's pool) parallelizes cleaning
  /// inside long flushed buffers. `metrics` (may be null) receives the
  /// stream ingest metrics — including the true ingest-to-result latency:
  /// each device buffer is stamped when its FIRST record arrives, and the
  /// stamp-to-delivery time of every flushed buffer lands in
  /// stream.ingest_to_result_ns.
  explicit StreamSession(std::shared_ptr<const Engine> engine,
                         StreamOptions options = {},
                         util::ThreadPool* pool = nullptr,
                         std::shared_ptr<obs::MetricsRegistry> metrics = nullptr);

  /// Installs (or, with nullptr, removes) the delivery callback. The sink is
  /// invoked from whichever thread triggered the flush, one result at a time,
  /// in device-id order per flush, with the session lock released.
  void SetSink(Sink sink);

  /// Buffers one record. Returns the translation of the device's buffer when
  /// ingestion itself forced a flush (buffer cap reached), else no value.
  /// InvalidArgument for an empty device id: the record is not buffered and
  /// counts under stream.rejected_records.
  Result<std::vector<TranslationResult>> Ingest(const std::string& device,
                                                const positioning::RawRecord& record);

  /// Flushes every device idle at `now` and returns their translations in
  /// device-id order.
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
    positioning::RecordBlock block;
    TimestampMs newest = 0;
    /// obs::NowNanos() at the FIRST record's arrival (0 = not traced).
    uint64_t ingest_ns = 0;
  };
  /// One device-hash shard of the ingest buffers. Ingest locks only the
  /// owning device's shard, so concurrent feeds on different devices proceed
  /// in parallel; flush paths sweep the shards one at a time.
  struct BufferShard {
    mutable std::mutex mu;
    std::map<std::string, Buffer> buffers;
    /// Records currently buffered in this shard (maintained by ingest/flush;
    /// exported as stream.shardNN.buffered_records). Null without a registry.
    obs::Gauge* buffered_records = nullptr;
  };
  /// A buffer popped for translation: the columnar records plus the trace
  /// stamp that rides along to the latency histogram.
  struct PoppedBuffer {
    positioning::RecordBlock block;
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
  // `min_records`. The caller then erases the emptied buffer. Requires
  // shard.mu held.
  void PopBufferLocked(BufferShard& shard, Buffer& buffer, size_t min_records,
                       std::vector<PoppedBuffer>* out);
  // Restores global device-id order over buffers gathered from several shards
  // (within one shard the map already yields device order).
  static void SortPoppedByDevice(std::vector<PoppedBuffer>* popped);
  // Translates popped buffers (no shard lock held) and routes the results to
  // the sink when one is installed, else back to the caller. `popped` must be
  // in device-id order.
  std::vector<TranslationResult> TranslateAndDeliver(std::vector<PoppedBuffer> popped);

  std::shared_ptr<const Engine> engine_;
  StreamOptions options_;
  util::ThreadPool* pool_ = nullptr;      // may be null (serial cleaning)
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // may be null
  StreamMetrics stream_metrics_;
  TranslationStageMetrics stages_;        // per-stage translation metrics
  std::vector<BufferShard> shards_;       // fixed size >= 1 after construction
  mutable std::mutex mu_;                 // guards sink_ and emitted_
  Sink sink_;
  size_t emitted_ = 0;
};

}  // namespace trips::core
