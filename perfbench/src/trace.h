// In-memory span recorder for the traced mode. Spans are recorded in the
// benchmark's own code around its calls into the library's public API
// (nothing inside the library is instrumented) and written out once, at the
// end, as Chrome trace-event JSON that Perfetto opens.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;   ///< 0: root
  uint32_t request = 0;  ///< session index + 1 (the device), 0: none
  uint32_t thread = 0;   ///< small per-thread ordinal
  uint32_t released = 0; ///< results delivered while this call ran
  uint64_t Duration() const { return end_ns - start_ns; }
};

/// Collects spans. Calls on the replay thread (`Record`) are lock-free
/// appends; spans from any thread (`RecordShared`, used by delivery sinks
/// that pool workers may run) take a mutex.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends a span recorded on the replay thread.
  void Record(const Span& span) { spans_.push_back(span); }
  /// Appends a span from any thread.
  void RecordShared(Span span);

  /// Every span, sorted by start time.
  std::vector<Span> Collect() const;

  /// Writes Chrome trace-event JSON to `path`, with `run` as metadata. Spans
  /// named `skip_name` that delivered nothing (buffering-only ingests, about
  /// one per record) are left out of the file and only counted in its
  /// metadata; every other span is written. Replay-thread spans carry tid 0.
  /// Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, const char* skip_name,
                        const trips::json::Value& run) const;

 private:
  bool enabled_;
  std::atomic<uint32_t> next_id_{1};
  std::vector<Span> spans_;  // replay thread only
  mutable std::mutex mu_;
  std::vector<Span> shared_;                 // guarded by mu_
  std::vector<std::thread::id> thread_ids_;  // guarded by mu_; ordinal = index + 1
};

/// RAII span for one call made on the replay thread; a null or disabled
/// tracer costs no clock reads. When `delivered` (a count of delivered
/// results) is given, the span records how many the call released.
class CallSpan {
 public:
  CallSpan(Tracer* tracer, const char* name, uint32_t parent, uint32_t request,
           const std::atomic<uint64_t>* delivered);
  ~CallSpan();
  uint32_t id() const { return span_.id; }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  const std::atomic<uint64_t>* delivered_;
  uint64_t delivered_before_ = 0;
};

}  // namespace perfbench
