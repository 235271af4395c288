#include "trace.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"

namespace perfbench {

void Tracer::RecordShared(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  std::thread::id self = std::this_thread::get_id();
  auto it = std::find(thread_ids_.begin(), thread_ids_.end(), self);
  if (it == thread_ids_.end()) it = thread_ids_.insert(thread_ids_.end(), self);
  span.thread = static_cast<uint32_t>(it - thread_ids_.begin()) + 1;
  shared_.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all = spans_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.insert(all.end(), shared_.begin(), shared_.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

bool Tracer::WriteChromeTrace(const std::string& path, const char* skip_name,
                              const trips::json::Value& run) const {
  namespace json = trips::json;
  std::vector<Span> spans = Collect();
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  int64_t skipped = 0;
  // One event per line; the file is written as it goes rather than built as
  // one value, since a traced replay records about 10^5 spans.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    if (s.released == 0 && std::strcmp(s.name, skip_name) == 0) {
      ++skipped;
      continue;
    }
    json::Object args;
    args["id"] = static_cast<int64_t>(s.id);
    args["parent"] = static_cast<int64_t>(s.parent);
    args["request"] = static_cast<int64_t>(s.request);
    args["released"] = static_cast<int64_t>(s.released);
    json::Object event;
    event["name"] = s.name;
    event["cat"] = "trips";
    event["ph"] = "X";
    event["pid"] = 1;
    event["tid"] = static_cast<int64_t>(s.thread);
    event["ts"] = static_cast<double>(s.start_ns - t0) / 1e3;
    event["dur"] = static_cast<double>(s.Duration()) / 1e3;
    event["args"] = std::move(args);
    out << (first ? "" : ",") << json::Value(std::move(event)).Dump() << "\n";
    first = false;
  }
  json::Object other;
  other["omitted_buffering_spans"] = skipped;
  other["run"] = run;
  out << "],\"otherData\":" << json::Value(std::move(other)).Dump() << "}\n";
  out.close();
  return static_cast<bool>(out);
}

CallSpan::CallSpan(Tracer* tracer, const char* name, uint32_t parent, uint32_t request,
                   const std::atomic<uint64_t>* delivered)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr), delivered_(delivered) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.request = request;
  if (delivered_ != nullptr) delivered_before_ = delivered_->load(std::memory_order_relaxed);
  span_.start_ns = trips::obs::NowNanos();
}

CallSpan::~CallSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = trips::obs::NowNanos();
  if (delivered_ != nullptr) {
    span_.released = static_cast<uint32_t>(delivered_->load(std::memory_order_relaxed) -
                                           delivered_before_);
  }
  tracer_->Record(span_);
}

}  // namespace perfbench
