#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace trips::core {

namespace {

// Resolves the shared per-stage translation metrics out of `registry` (all
// sessions of one registry aggregate into the same names). Null registry ->
// all-null struct (recording disabled).
TranslationStageMetrics ResolveStageMetrics(obs::MetricsRegistry* registry) {
  TranslationStageMetrics stages;
  if (registry == nullptr) return stages;
  stages.clean_ns = registry->histogram("translate.clean_ns");
  stages.split_ns = registry->histogram("translate.split_ns");
  stages.annotate_ns = registry->histogram("translate.annotate_ns");
  stages.complement_ns = registry->histogram("translate.complement_ns");
  stages.sequences = registry->counter("translate.sequences");
  stages.records = registry->counter("translate.records");
  // Per-pass breakdown inside the cleaning layer (/statsz shows where
  // cleaning time goes: scan vs interpolate vs smooth vs snap).
  stages.cleaning.scan_ns = registry->histogram("clean.scan_ns");
  stages.cleaning.interpolate_ns = registry->histogram("clean.interpolate_ns");
  stages.cleaning.smooth_ns = registry->histogram("clean.smooth_ns");
  stages.cleaning.snap_ns = registry->histogram("clean.snap_ns");
  return stages;
}

}  // namespace

// ---- BatchSession -----------------------------------------------------------

BatchSession::BatchSession(std::shared_ptr<const Engine> engine,
                           util::ThreadPool* pool,
                           std::shared_ptr<obs::MetricsRegistry> metrics)
    : engine_(std::move(engine)),
      pool_(pool),
      metrics_(std::move(metrics)),
      stages_(ResolveStageMetrics(metrics_.get())),
      knowledge_(engine_->knowledge()) {
  if (metrics_ != nullptr) {
    submit_ns_ = metrics_->histogram("translate.batch_submit_ns");
  }
}

void BatchSession::ResetKnowledge(complement::MobilityKnowledge knowledge) {
  std::lock_guard<std::mutex> lock(mu_);
  knowledge_ = std::move(knowledge);
}

Result<TranslationResponse> BatchSession::Submit(const TranslationRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::StageTimer submit_timer(submit_ns_);
  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();

  const std::vector<positioning::PositioningSequence>& seqs = request.sequences;
  TranslationResponse response;
  response.workers_used = pool_->worker_count() + 1;
  response.results.resize(seqs.size());
  for (const positioning::PositioningSequence& seq : seqs) {
    response.total_records += seq.records.size();
  }

  // Layers 1+2 on every sequence, fanned out; results land at their input
  // index, so the outcome is independent of scheduling. Each worker converts
  // into its own reused RecordBlock (per-thread, reserve-once) and runs the
  // columnar pipeline; the pool is threaded through so very long sequences
  // additionally parallelize their cleaning passes across idle workers.
  std::vector<TranslationResult>& results = response.results;
  util::ThreadPool* pool = pool_;
  const TranslationStageMetrics* stages = &stages_;
  pool_->ParallelFor(seqs.size(), [&, pool, stages](size_t i) {
    static thread_local positioning::RecordBlock block;
    block.AssignFrom(seqs[i]);
    results[i] = engine_->CleanAndAnnotate(&block, pool, stages);
  });

  // Knowledge construction aggregates all annotated sequences (integer-count
  // aggregation: the result is independent of sequence order).
  if (request.learn_knowledge) {
    complement::MobilityKnowledge learned = engine_->BuildKnowledge(results);
    if (learned.observed_transitions > 0) {
      knowledge_ = std::move(learned);
    }
  }

  // Layer 3 on every sequence, fanned out.
  pool_->ParallelFor(results.size(), [&](size_t i) {
    engine_->Complement(&results[i], knowledge_, &stages_);
  });

  // Deterministic output order: by device id, input order breaking ties.
  std::stable_sort(results.begin(), results.end(),
                   [](const TranslationResult& a, const TranslationResult& b) {
                     return a.semantics.device_id < b.semantics.device_id;
                   });

  translated_.fetch_add(results.size(), std::memory_order_relaxed);
  response.elapsed_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count() /
      1000.0;
  return response;
}

// ---- StreamSession ----------------------------------------------------------

StreamSession::StreamSession(std::shared_ptr<const Engine> engine,
                             StreamOptions options, util::ThreadPool* pool,
                             std::shared_ptr<obs::MetricsRegistry> metrics)
    : engine_(std::move(engine)),
      options_(options),
      pool_(pool),
      metrics_(std::move(metrics)),
      shards_(std::max<size_t>(1, options.buffer_shards)) {
  if (metrics_ == nullptr) return;
  stages_ = ResolveStageMetrics(metrics_.get());
  stream_metrics_.records_ingested = metrics_->counter("stream.records_ingested");
  stream_metrics_.rejected_records = metrics_->counter("stream.rejected_records");
  stream_metrics_.buffered_records = metrics_->gauge("stream.buffered_records");
  stream_metrics_.flushes = metrics_->counter("stream.flushes");
  stream_metrics_.flush_records = metrics_->counter("stream.flush_records");
  stream_metrics_.dropped_small_buffers =
      metrics_->counter("stream.dropped_small_buffers");
  stream_metrics_.ingest_to_result_ns =
      metrics_->histogram("stream.ingest_to_result_ns");
  for (size_t i = 0; i < shards_.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "stream.shard%02zu.buffered_records", i);
    shards_[i].buffered_records = metrics_->gauge(name);
  }
}

void StreamSession::SetSink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

StreamSession::BufferShard& StreamSession::ShardFor(const std::string& device) {
  return shards_[std::hash<std::string>{}(device) % shards_.size()];
}

size_t StreamSession::PendingDevices() const {
  size_t total = 0;
  for (const BufferShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [device, buffer] : shard.buffers) {
      if (!buffer.records.Empty()) ++total;  // a capped entry may sit empty
    }
  }
  return total;
}

size_t StreamSession::PendingRecords() const {
  size_t total = 0;
  for (const BufferShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [device, buffer] : shard.buffers) {
      total += buffer.records.Size();
    }
  }
  return total;
}

size_t StreamSession::EmittedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

void StreamSession::TrackBuffered(BufferShard& shard, int64_t delta) {
  if (stream_metrics_.buffered_records != nullptr) {
    stream_metrics_.buffered_records->Add(delta);
  }
  if (shard.buffered_records != nullptr) shard.buffered_records->Add(delta);
}

void StreamSession::PopBufferLocked(BufferShard& shard, Buffer& buffer,
                                    size_t min_records,
                                    std::vector<PoppedBuffer>* out) {
  const size_t size = buffer.records.Size();
  TrackBuffered(shard, -static_cast<int64_t>(size));
  if (size < min_records) {
    // Stray fixes, no semantics to extract.
    if (stream_metrics_.dropped_small_buffers != nullptr) {
      stream_metrics_.dropped_small_buffers->Add(1);
    }
  } else {
    out->push_back(PoppedBuffer{std::move(buffer.records), buffer.ingest_ns});
  }
  buffer.records.records.clear();  // also makes a moved-from buffer's state explicit
  buffer.ingest_ns = 0;
}

void StreamSession::SortPoppedByDevice(std::vector<PoppedBuffer>* popped) {
  std::sort(popped->begin(), popped->end(),
            [](const PoppedBuffer& a, const PoppedBuffer& b) {
              return a.records.device_id < b.records.device_id;
            });
}

std::vector<TranslationResult> StreamSession::TranslateAndDeliver(
    std::vector<PoppedBuffer> popped) {
  // Fast path for the overwhelmingly common no-flush case (every Ingest that
  // doesn't hit the cap, every Poll with no idle device).
  if (popped.empty()) return std::vector<TranslationResult>{};
  // One buffer per task, results stored by index: the output depends only on
  // `popped`, never on which thread translated what. Each translating thread
  // converts into its own reused block; the pool rides along so a long
  // buffer's cleaning passes also spread over idle workers.
  std::vector<TranslationResult> out(popped.size());
  auto translate = [&](size_t i) {
    static thread_local positioning::RecordBlock block;
    block.AssignFrom(popped[i].records);
    out[i] = engine_->TranslateBlock(&block, pool_, &stages_);
    out[i].trace.ingest_steady_ns = popped[i].ingest_ns;
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(popped.size(), translate);
  } else {
    for (size_t i = 0; i < popped.size(); ++i) translate(i);
  }
  // Flush accounting on the calling thread, before any delivery.
  const uint64_t delivered_ns = obs::NowNanos();
  for (const PoppedBuffer& popped_buffer : popped) {
    if (stream_metrics_.flushes != nullptr) stream_metrics_.flushes->Add(1);
    if (stream_metrics_.flush_records != nullptr) {
      stream_metrics_.flush_records->Add(popped_buffer.records.Size());
    }
    // True ingest-to-result latency: first raw record of the buffer arrived ->
    // its translation is about to be delivered.
    if (popped_buffer.ingest_ns != 0 &&
        stream_metrics_.ingest_to_result_ns != nullptr) {
      stream_metrics_.ingest_to_result_ns->Record(delivered_ns -
                                                  popped_buffer.ingest_ns);
    }
  }
  Sink sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    emitted_ += out.size();
    sink = sink_;
  }
  if (!sink) return out;
  for (TranslationResult& result : out) sink(std::move(result));
  return std::vector<TranslationResult>{};
}

Result<std::vector<TranslationResult>> StreamSession::Ingest(
    const std::string& device, const positioning::RawRecord& record) {
  if (device.empty()) {
    // A buffer without a device id would flush into a result no store
    // accepts, so the record is refused here, where the caller still sees it.
    if (stream_metrics_.rejected_records != nullptr) {
      stream_metrics_.rejected_records->Add(1);
    }
    return Status::InvalidArgument("stream record needs a device id");
  }
  std::vector<PoppedBuffer> popped;
  {
    BufferShard& shard = ShardFor(device);
    std::lock_guard<std::mutex> lock(shard.mu);
    Buffer& buffer = shard.buffers[device];
    if (buffer.records.Empty()) {
      buffer.records.device_id = device;
      // An entry a cap flush emptied holds the visit's tail only until the
      // device has been idle long enough for Poll to end that visit.
      if (buffer.capped &&
          record.timestamp - buffer.newest >= options_.flush_after) {
        buffer.capped = false;
      }
      // Trace stamp: one clock read per device buffer (not per record), and
      // only while the latency histogram is live.
      if (stream_metrics_.ingest_to_result_ns != nullptr &&
          stream_metrics_.ingest_to_result_ns->recording()) {
        buffer.ingest_ns = obs::NowNanos();
      }
    }
    buffer.records.records.push_back(record);
    if (stream_metrics_.records_ingested != nullptr) {
      stream_metrics_.records_ingested->Add(1);
    }
    TrackBuffered(shard, 1);
    if (record.timestamp > buffer.newest) buffer.newest = record.timestamp;
    if (buffer.records.Size() >= options_.max_buffer_records) {
      // A capped buffer is a device still present, never stray fixes, so
      // min_flush_records does not apply. The entry stays, marked, so that
      // the visit's tail is translated too when the device goes idle.
      PopBufferLocked(shard, buffer, 1, &popped);
      buffer.capped = true;
    }
  }
  return TranslateAndDeliver(std::move(popped));
}

Result<std::vector<TranslationResult>> StreamSession::Poll(TimestampMs now) {
  std::vector<PoppedBuffer> popped;
  for (BufferShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.buffers.begin(); it != shard.buffers.end();) {
      Buffer& buffer = it->second;
      if (now - buffer.newest < options_.flush_after) {
        ++it;
        continue;
      }
      if (!buffer.records.Empty()) {
        PopBufferLocked(shard, buffer,
                        buffer.capped ? 1 : options_.min_flush_records, &popped);
      }
      it = shard.buffers.erase(it);
    }
  }
  SortPoppedByDevice(&popped);
  return TranslateAndDeliver(std::move(popped));
}

Result<std::vector<TranslationResult>> StreamSession::FlushAll() {
  // End-of-stream drain: unlike the age-based Poll flush, every remainder is
  // translated, however short — dropping here would silently lose the tail of
  // any sequence shorter than min_flush_records (stream output must stay
  // byte-identical to translating the same sequences as a batch).
  std::vector<PoppedBuffer> popped;
  for (BufferShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [device, buffer] : shard.buffers) {
      if (!buffer.records.Empty()) PopBufferLocked(shard, buffer, 1, &popped);
    }
    shard.buffers.clear();
  }
  SortPoppedByDevice(&popped);
  return TranslateAndDeliver(std::move(popped));
}

}  // namespace trips::core
