#include "runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cluster/cluster.h"
#include "core/analytics.h"
#include "core/engine.h"
#include "core/service.h"
#include "layers.h"
#include "obs/metrics.h"
#include "store/trip_store.h"
#include "trace.h"

namespace perfbench {

using namespace trips;

namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 200;
constexpr size_t kTraceBaselineReps = 2;
// Batch workload: passes over the analyst mix after the cold reopen; the
// first (cold) pass is verified against the brute-force answers.
constexpr int kAnalystPasses = 3;

// Operations attempted and failed. Every public call and every correctness
// check is one operation.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;

  void Op(const Status& st, const char* what) {
    if (!st.ok()) {
      Fail(std::string(what) + ": " + st.ToString());
    } else {
      ++attempted;
    }
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      Fail("check failed: " + what);
    } else {
      ++attempted;
    }
  }
  void Fail(std::string message) {
    ++attempted;
    ++failed;
    if (messages.size() < 20) messages.push_back(std::move(message));
  }
};

// Receives every delivered result, from whichever thread flushed it, and
// stamps its stored lag against the start of the releasing public call.
class DeliveryLog {
 public:
  DeliveryLog(const std::unordered_map<std::string, uint32_t>* index, Tracer* tracer)
      : index_(index), tracer_(tracer) {}

  void BeginCall(CallKind kind, uint32_t span) {
    kind_.store(kind, std::memory_order_relaxed);
    span_.store(span, std::memory_order_relaxed);
    call_start_ns_.store(obs::NowNanos(), std::memory_order_relaxed);
  }
  void SetWindow(bool open) { window_.store(open, std::memory_order_relaxed); }

  // The Cluster has appended the result to its venue's store when its sink
  // runs.
  void Deliver(core::TranslationResult result) {
    const uint64_t begin = obs::NowNanos();
    Delivery d;
    d.lag_ms =
        static_cast<double>(begin - call_start_ns_.load(std::memory_order_relaxed)) / 1e6;
    auto it = index_->find(result.semantics.device_id);
    d.session = it == index_->end() ? UINT32_MAX : it->second;
    d.records = static_cast<uint32_t>(result.raw.records.size());
    d.call = kind_.load(std::memory_order_relaxed);
    d.call_span = span_.load(std::memory_order_relaxed);
    d.in_window = window_.load(std::memory_order_relaxed);
    d.semantics = std::move(result.semantics);
    const uint32_t session = d.session;
    const uint32_t parent = d.call_span;
    {
      std::lock_guard<std::mutex> lock(mu_);
      deliveries_.push_back(std::move(d));
      if (tracer_ != nullptr) deliveries_.back().sink_ns = obs::NowNanos() - begin;
    }
    delivered.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      Span span;
      span.name = spans::kSink;
      span.start_ns = begin;
      span.end_ns = obs::NowNanos();
      span.id = tracer_->NewId();
      span.parent = parent;
      span.request = session + 1;
      tracer_->RecordShared(span);
    }
  }

  std::vector<Delivery> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(deliveries_);
  }

  std::atomic<uint64_t> delivered{0};

 private:
  const std::unordered_map<std::string, uint32_t>* index_;
  Tracer* tracer_;
  std::atomic<uint8_t> kind_{kCallIngest};
  std::atomic<uint32_t> span_{0};
  std::atomic<uint64_t> call_start_ns_{0};
  std::atomic<bool> window_{false};
  std::mutex mu_;
  std::vector<Delivery> deliveries_;
};

// What one rep measured.
struct RepOutcome {
  double setup_s = 0;
  double replay_s = 0;  ///< the whole replay incl. warm-up (trace overhead base)
  double window_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  uint64_t window_records = 0;
  std::vector<double> lag_ms;
  std::vector<double> query_ms;
  double region_match = 0;
  double event_match = 0;
};

// What the traced rep adds.
struct TraceData {
  Tracer tracer{true};
  std::unordered_map<uint32_t, double> pool_wait;  // call span id -> ns
  std::vector<Delivery> deliveries;
  double replay_ns = 0;
  MetricMap metrics;  // per-layer metrics measured around the replay
  LayerPassResult pass;
  std::vector<LedgerRow> ledger;
};

struct Context {
  const WorkloadInput* input = nullptr;
  const RunOptions* options = nullptr;
  Tally* tally = nullptr;
  std::unordered_map<std::string, uint32_t> index;  // device -> session
  std::vector<core::TranslationRequest> requests;   // batch: one per chunk
};

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void Put(MetricMap* m, const std::string& name, double value, const std::string& unit,
         uint64_t samples) {
  (*m)[name] = Metric{std::isfinite(value) ? value : 0, unit, samples};
}

// Time-weighted agreement of one stored history with the truth.
struct Agreement {
  double region = 0, event = 0, evaluated = 0;
  void Add(const core::MobilitySemanticsSequence& truth,
           const core::MobilitySemanticsSequence& stored) {
    core::SemanticsAgreement a = core::CompareSemantics(truth, stored);
    region += a.region_match * static_cast<double>(a.evaluated);
    event += a.event_match * static_cast<double>(a.evaluated);
    evaluated += static_cast<double>(a.evaluated);
  }
};

// Every device's delivered semantics, concatenated in delivery order and
// ordered the way a history read orders them.
std::vector<core::MobilitySemanticsSequence> ExpectedHistories(
    const WorkloadInput& input, const std::vector<Delivery>& deliveries) {
  std::vector<core::MobilitySemanticsSequence> out(input.sessions.size());
  for (size_t s = 0; s < out.size(); ++s) out[s].device_id = input.sessions[s].device;
  for (const Delivery& d : deliveries) {
    if (d.session >= out.size()) continue;
    auto& into = out[d.session].semantics;
    into.insert(into.end(), d.semantics.semantics.begin(), d.semantics.semantics.end());
  }
  for (auto& h : out) h.SortByTime();
  return out;
}

bool SameSequence(const core::MobilitySemanticsSequence& a,
                  const core::MobilitySemanticsSequence& b) {
  return a.device_id == b.device_id && a.semantics == b.semantics;
}

// Where two sequences part, for a failure message.
std::string Difference(const core::MobilitySemanticsSequence& got,
                       const core::MobilitySemanticsSequence& want) {
  size_t i = 0;
  while (i < got.semantics.size() && i < want.semantics.size() &&
         got.semantics[i] == want.semantics[i]) {
    ++i;
  }
  std::string out = " (read " + std::to_string(got.semantics.size()) + " triplets, delivered " +
                    std::to_string(want.semantics.size()) + "; first difference at " +
                    std::to_string(i);
  if (i < got.semantics.size()) out += ": read " + got.semantics[i].ToString();
  if (i < want.semantics.size()) out += " vs " + want.semantics[i].ToString();
  return out + ")";
}

uint64_t DiskBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// Distribution of the durations of spans named `name`, microseconds.
std::vector<double> SpanUs(const std::vector<Span>& all, const char* name) {
  std::vector<double> out;
  for (const Span& s : all) {
    if (std::string_view(s.name) == name) out.push_back(static_cast<double>(s.Duration()) / 1e3);
  }
  return out;
}

// ---- city_steady: the stream workload -------------------------------------------

// The front door of the stream workload: a Cluster and its venues' engines.
struct StreamTarget {
  std::vector<std::shared_ptr<const core::Engine>> engines;
  std::unique_ptr<cluster::Cluster> cluster;

  void Teardown() {
    cluster.reset();
    engines.clear();
  }
};

Status BuildEngines(const Context& ctx, std::vector<std::vector<config::LabeledSegment>> training,
                    Tracer* tracer, uint32_t parent,
                    std::vector<std::shared_ptr<const core::Engine>>* engines) {
  for (size_t v = 0; v < ctx.input->venues.size(); ++v) {
    const VenueInput& venue = ctx.input->venues[v];
    CallSpan span(tracer, "Engine::Builder::Build", parent, 0, nullptr);
    auto engine = core::Engine::Builder()
                      .ShareDsm(venue.dsm)
                      .SetTrainingData(std::move(training[v]))
                      .Build();
    ctx.tally->Op(engine.status(), "Engine::Builder::Build");
    if (!engine.ok()) return engine.status();
    ctx.tally->Check(engine.ValueOrDie()->training_status().ok(),
                     "event model trained for " + venue.id);
    engines->push_back(engine.ValueOrDie());
  }
  return Status::OK();
}

std::vector<std::vector<config::LabeledSegment>> TrainingCopies(const WorkloadInput& input) {
  std::vector<std::vector<config::LabeledSegment>> out;
  for (const VenueInput& v : input.venues) out.push_back(v.training);
  return out;
}

Status SetupStream(const Context& ctx, const std::string& dir,
                   std::vector<std::vector<config::LabeledSegment>> training, Tracer* tracer,
                   uint32_t parent, DeliveryLog* log, StreamTarget* t) {
  const WorkloadInput& in = *ctx.input;
  Status st = BuildEngines(ctx, std::move(training), tracer, parent, &t->engines);
  if (!st.ok()) return st;
  {
    CallSpan span(tracer, "Cluster::Cluster", parent, 0, nullptr);
    cluster::ClusterOptions options;
    options.worker_threads = kWorkers;
    t->cluster = std::make_unique<cluster::Cluster>(options);
  }
  for (size_t v = 0; v < in.venues.size(); ++v) {
    CallSpan span(tracer, "Cluster::AddVenue", parent, 0, nullptr);
    st = t->cluster->AddVenue({.venue_id = in.venues[v].id,
                               .engine = t->engines[v],
                               .stream = in.venues[v].stream,
                               .store_directory = dir + "/" + in.venues[v].id});
    ctx.tally->Op(st, "Cluster::AddVenue");
    if (!st.ok()) return st;
  }
  t->cluster->SetSink([log](const std::string&, core::TranslationResult result) {
    log->Deliver(std::move(result));
  });
  return Status::OK();
}

// Per-layer numbers read around the traced replay from what the program
// already exports: registry snapshots, engine cache/probe counters, stats.
void StreamLayerMetrics(const StreamTarget& t, const std::vector<Span>& all,
                        const std::vector<Delivery>& deliveries, MetricMap* metrics) {
  MetricMap& m = *metrics;
  std::vector<double> ingest_ns, inline_ms, poll_ms;
  size_t polls = 0, empty_polls = 0;
  double drain_ms = 0;
  for (const Span& s : all) {
    std::string_view name(s.name);
    if (name == spans::kClusterIngest) {
      if (s.released == 0) {
        ingest_ns.push_back(static_cast<double>(s.Duration()));
      } else {
        inline_ms.push_back(Ms(s.Duration()));
      }
    } else if (name == spans::kClusterPoll) {
      ++polls;
      if (s.released == 0) ++empty_polls;
      poll_ms.push_back(Ms(s.Duration()));
    } else if (name == spans::kClusterFlushAll) {
      drain_ms += Ms(s.Duration());
    }
  }
  uint64_t records = 0;
  for (const Delivery& d : deliveries) records += d.records;
  double mean_ingest = ingest_ns.empty() ? 0 : Sum(ingest_ns) / ingest_ns.size();
  Put(&m, "session.ingest_ns", mean_ingest, "ns", ingest_ns.size());
  Put(&m, "session.inline_flushes", inline_ms.size(), "count", inline_ms.size());
  Put(&m, "session.inline_flush_ms", Sum(inline_ms), "ms", inline_ms.size());
  Put(&m, "session.poll_ms", Sum(poll_ms), "ms", polls);
  Put(&m, "session.poll_p99_ms", Quantile(poll_ms, 0.99), "ms", polls);
  Put(&m, "session.empty_poll_fraction", polls ? static_cast<double>(empty_polls) / polls : 0,
      "fraction", polls);
  Put(&m, "session.drain_ms", drain_ms, "ms", 1);
  Put(&m, "session.records_per_flush",
      deliveries.empty() ? 0 : static_cast<double>(records) / deliveries.size(), "records",
      deliveries.size());
  cluster::ClusterStats stats = t.cluster->Stats();
  double max = 0, total = 0;
  for (const auto& [venue, n] : stats.per_venue_ingested) {
    max = std::max(max, static_cast<double>(n));
    total += static_cast<double>(n);
  }
  double mean = stats.per_venue_ingested.empty() ? 0 : total / stats.per_venue_ingested.size();
  Put(&m, "cluster.venue_skew", mean > 0 ? max / mean : 0, "ratio",
      stats.per_venue_ingested.size());
}

// Pool, routing, spatial and store-append numbers common to all workloads.
void CommonLayerMetrics(const std::vector<std::shared_ptr<const core::Engine>>& engines,
                        const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
                        double window_ns, uint64_t records, MetricMap* m) {
  auto hist = [](const obs::MetricsSnapshot& s, const char* name) {
    const obs::HistogramSummary* h = s.histogram(name);
    return h == nullptr ? obs::HistogramSummary{} : *h;
  };
  obs::HistogramSummary wait0 = hist(before, "pool.task_wait_ns");
  obs::HistogramSummary wait1 = hist(after, "pool.task_wait_ns");
  obs::HistogramSummary run0 = hist(before, "pool.task_run_ns");
  obs::HistogramSummary run1 = hist(after, "pool.task_run_ns");
  uint64_t tasks = wait1.count - wait0.count;
  Put(m, "pool.task_wait_ms", Ms(wait1.sum - wait0.sum), "ms", tasks);
  Put(m, "pool.task_wait_p99_ms", Ms(wait1.p99), "ms", wait1.count);
  Put(m, "pool.busy_fraction",
      window_ns > 0 ? static_cast<double>(run1.sum - run0.sum) / (kWorkers * window_ns) : 0,
      "fraction", run1.count - run0.count);
  uint64_t hits = 0, misses = 0, evictions = 0, snap_probes = 0, partition_probes = 0;
  for (const auto& e : engines) {
    core::RoutingCacheStats r = e->routing_cache_stats();
    hits += r.hits;
    misses += r.misses;
    evictions += r.evictions;
    dsm::SpatialProbeStats p = e->spatial_probe_stats();
    snap_probes += p.snap_probes;
    partition_probes += p.partition_probes;
  }
  Put(m, "dsm.route_cache_hit_rate",
      hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
      "fraction", hits + misses);
  Put(m, "dsm.route_cache_evictions", static_cast<double>(evictions), "count", 1);
  Put(m, "dsm.snap_probes_per_record",
      records ? static_cast<double>(snap_probes) / records : 0, "probes/record", records);
  Put(m, "dsm.partition_probes_per_record",
      records ? static_cast<double>(partition_probes) / records : 0, "probes/record", records);
  obs::HistogramSummary a0 = hist(before, "store.append_ns");
  obs::HistogramSummary a1 = hist(after, "store.append_ns");
  uint64_t appends = a1.count - a0.count;
  Put(m, "store.append_us",
      appends ? static_cast<double>(a1.sum - a0.sum) / appends / 1e3 : 0, "us", appends);
}

RepOutcome RunStreamRep(Context& ctx, size_t rep, bool score_quality, TraceData* trace) {
  const WorkloadInput& in = *ctx.input;
  Tally& tally = *ctx.tally;
  Tracer* tracer = trace != nullptr ? &trace->tracer : nullptr;
  RepOutcome out;
  const std::string dir = ctx.options->work_dir + "/rep-" + std::to_string(rep);
  std::filesystem::remove_all(dir);
  DeliveryLog log(&ctx.index, tracer);
  StreamTarget t;

  // ---- set-up --------------------------------------------------------------
  {
    CallSpan setup_span(tracer, "setup", 0, 0, nullptr);
    auto training = TrainingCopies(in);  // inputs: copied before the clock
    const uint64_t t0 = obs::NowNanos();
    Status st = SetupStream(ctx, dir, std::move(training), tracer, setup_span.id(), &log, &t);
    out.setup_s = static_cast<double>(obs::NowNanos() - t0) / 1e9;
    if (!st.ok()) {
      t.Teardown();
      std::filesystem::remove_all(dir);
      return out;
    }
  }
  obs::MetricsRegistry& registry = *t.cluster->stats_registry();
  obs::Histogram* pool_wait = registry.histogram("pool.task_wait_ns");
  auto waited = [&] { return pool_wait->Summarize().sum; };
  for (const auto& e : t.engines) e->ResetSpatialProbes();
  obs::MetricsSnapshot snap_before = registry.Snap();

  // ---- replay: warm-up prefix, then the timed window -------------------------
  RssTracker rss;
  uint64_t window_start = 0, cpu_start = 0, window_end = 0, cpu_end = 0;
  const uint64_t replay_start = obs::NowNanos();
  {
    CallSpan replay_span(tracer, spans::kReplay, 0, 0, nullptr);
    const uint32_t parent = replay_span.id();
    auto step = [&](const Event& ev) {
      if (ev.session == kPollEvent) {
        CallSpan span(tracer, spans::kClusterPoll, parent, 0, &log.delivered);
        log.BeginCall(kCallPoll, span.id());
        uint64_t w0 = tracer != nullptr ? waited() : 0;
        Status st = t.cluster->Poll(ev.t);
        if (tracer != nullptr) trace->pool_wait[span.id()] = static_cast<double>(waited() - w0);
        tally.Op(st, "Poll");
        return;
      }
      const Session& s = in.sessions[ev.session];
      CallSpan span(tracer, spans::kClusterIngest, parent, ev.session + 1, &log.delivered);
      log.BeginCall(kCallIngest, span.id());
      Status st = t.cluster->Ingest(in.venues[s.venue].id, s.device, s.raw[ev.index]);
      tally.Op(st, "Ingest");
    };
    for (size_t e = 0; e < in.warmup_events; ++e) step(in.schedule[e]);
    // Only rep 0 measures memory. Returning freed heap to the kernel before
    // every rep would make each timed window fault its heap back in.
    if (rep == 0) rss.Reset();
    cpu_start = ProcessCpuNs();
    window_start = obs::NowNanos();
    log.SetWindow(true);
    for (size_t e = in.warmup_events; e < in.schedule.size(); ++e) step(in.schedule[e]);
    {
      CallSpan span(tracer, spans::kClusterFlushAll, parent, 0, &log.delivered);
      log.BeginCall(kCallDrain, span.id());
      uint64_t w0 = tracer != nullptr ? waited() : 0;
      Status st = t.cluster->FlushAll();
      if (tracer != nullptr) trace->pool_wait[span.id()] = static_cast<double>(waited() - w0);
      tally.Op(st, "FlushAll");
    }
    {
      CallSpan span(tracer, spans::kClusterPersistAll, parent, 0, nullptr);
      tally.Op(t.cluster->PersistAll(), "Cluster::PersistAll");
    }
    window_end = obs::NowNanos();
    cpu_end = ProcessCpuNs();
    log.SetWindow(false);
  }
  out.replay_s = static_cast<double>(window_end - replay_start) / 1e9;
  out.window_s = static_cast<double>(window_end - window_start) / 1e9;
  out.cpu_s = static_cast<double>(cpu_end - cpu_start) / 1e9;
  if (rep == 0) out.peak_rss_mb = rss.PeakAboveResetMb();
  obs::MetricsSnapshot snap_after = registry.Snap();

  // ---- correctness ------------------------------------------------------------
  std::vector<Delivery> deliveries = log.Take();
  uint64_t delivered_records = 0;
  bool known = true;
  for (const Delivery& d : deliveries) {
    delivered_records += d.records;
    known = known && d.session < in.sessions.size();
    if (d.in_window) {
      out.window_records += d.records;
      out.lag_ms.push_back(d.lag_ms);
    }
  }
  tally.Check(known, "every delivered result belongs to an offered device");
  tally.Check(delivered_records == in.total_records,
              "every offered record translated exactly once (" +
                  std::to_string(delivered_records) + " of " +
                  std::to_string(in.total_records) + ")");
  tally.Check(snap_after.counter_or("stream.dropped_small_buffers") == 0, "no buffer dropped");
  tally.Check(t.cluster->PendingRecords() == 0, "nothing pending after the drain");
  cluster::ClusterStats stats = t.cluster->Stats();
  tally.Check(stats.ingested == in.total_records, "cluster accepted every offered record");
  tally.Check(stats.stored_sequences == deliveries.size(),
              "ClusterStats::stored_sequences equals results delivered");
  size_t stored = 0;
  for (const VenueInput& v : in.venues) stored += t.cluster->venue_store(v.id)->Stats().sequences;
  tally.Check(stored == deliveries.size(), "StoreStats::sequences equals results delivered");

  // Read-back. Each device's stored history is first read through the
  // cluster and checked against its delivered semantics. Then one timed read
  // per device, in the input's shuffled order, from the store of the venue
  // the device was ingested at gives the query latencies. The cluster's
  // cross-venue read fans out to the pool, so its latency is mostly a worker
  // wake-up, which the host sets, not the program (see perfbench/README.md).
  std::vector<core::MobilitySemanticsSequence> expected = ExpectedHistories(in, deliveries);
  Agreement agreement;
  {
    CallSpan verify(tracer, "read-back", 0, 0, nullptr);
    for (uint32_t s = 0; s < in.sessions.size(); ++s) {
      const Session& session = in.sessions[s];
      CallSpan span(tracer, "Cluster::DeviceHistoryAcrossVenues", verify.id(), s + 1, nullptr);
      std::vector<cluster::VenueHistory> found =
          t.cluster->DeviceHistoryAcrossVenues(session.device);
      // Venues holding no triplet of the device are omitted, so a device
      // whose translation came out empty has no history anywhere.
      core::MobilitySemanticsSequence history;
      history.device_id = session.device;
      bool ok = found.empty() ||
                (found.size() == 1 && found[0].venue_id == in.venues[session.venue].id);
      if (ok && !found.empty()) history = std::move(found[0].history);
      bool same = ok && SameSequence(history, expected[s]);
      tally.Check(same, "stored history equals delivered semantics for " + session.device +
                            (same ? "" : Difference(history, expected[s])));
      if (score_quality) agreement.Add(session.semantics, history);
    }
  }
  {
    CallSpan timed(tracer, "reads", 0, 0, nullptr);
    for (const Query& q : in.queries) {
      const Session& session = in.sessions[q.session];
      const store::TripStore* store = t.cluster->venue_store(in.venues[session.venue].id);
      CallSpan span(tracer, QueryName(QueryKind::kDeviceHistory), timed.id(), q.session + 1,
                    nullptr);
      const uint64_t q0 = obs::NowNanos();
      core::MobilitySemanticsSequence history = store->DeviceHistory(session.device);
      out.query_ms.push_back(Ms(obs::NowNanos() - q0));
      tally.Check(SameSequence(history, expected[q.session]),
                  "venue store history equals the cluster's for " + session.device);
    }
  }
  if (agreement.evaluated > 0) {
    out.region_match = agreement.region / agreement.evaluated;
    out.event_match = agreement.event / agreement.evaluated;
  }

  if (trace != nullptr) {
    trace->replay_ns = static_cast<double>(window_end - replay_start);
    MetricMap& m = trace->metrics;
    std::vector<Span> all = trace->tracer.Collect();
    StreamLayerMetrics(t, all, deliveries, &m);
    CommonLayerMetrics(t.engines, snap_before, snap_after, trace->replay_ns, in.total_records,
                       &m);
    // Store layout once background compaction has settled.
    uint64_t bytes = 0, triplets = 0, segments = 0, materialized = 0;
    double persist_ms = 0;
    for (const Span& s : all) {
      if (std::string_view(s.name) == spans::kClusterPersistAll) persist_ms += Ms(s.Duration());
    }
    for (const VenueInput& v : in.venues) {
      const store::TripStore* st = t.cluster->venue_store(v.id);
      st->WaitForCompaction();
      store::StoreStats venue_stats = st->Stats();
      triplets += venue_stats.triplets;
      segments += venue_stats.segments;
      materialized += venue_stats.materialized_segments;
    }
    bytes = DiskBytes(dir);
    std::vector<double> open_us = SpanUs(all, "Cluster::AddVenue");
    std::vector<double> lookup_us = SpanUs(all, QueryName(QueryKind::kDeviceHistory));
    Put(&m, "store.persist_ms", persist_ms, "ms", 1);
    Put(&m, "store.bytes_per_triplet", triplets ? static_cast<double>(bytes) / triplets : 0,
        "B", triplets);
    Put(&m, "store.segments", static_cast<double>(segments), "count", 1);
    Put(&m, "store.open_ms", Sum(open_us) / 1e3, "ms", open_us.size());
    Put(&m, "store.lookup_p50_us", Quantile(lookup_us, 0.5), "us", lookup_us.size());
    Put(&m, "store.lookup_p99_us", Quantile(lookup_us, 0.99), "us", lookup_us.size());
    Put(&m, "store.window_p50_us", 0, "us", 0);
    Put(&m, "store.window_p99_us", 0, "us", 0);
    Put(&m, "store.analytics_ms", 0, "ms", 0);
    Put(&m, "store.materialized_fraction",
        segments ? static_cast<double>(materialized) / segments : 0, "fraction", segments);
    Put(&m, "batch.ns_per_record", 0, "ns", 0);
    Put(&m, "batch.knowledge_ms", 0, "ms", 0);

    // The layer pass over the delivered buffers, with this rep's engines.
    std::vector<const core::Engine*> engines;
    for (const auto& e : t.engines) engines.push_back(e.get());
    trace->pass = RunLayerPass(in, engines, deliveries);
    trace->deliveries = std::move(deliveries);
    LedgerInput li;
    li.wall_ns = trace->replay_ns;
    li.spans = &all;
    li.deliveries = &trace->deliveries;
    li.pass = &trace->pass;
    li.pool_wait = &trace->pool_wait;
    trace->ledger = BuildLedger(li);
  }

  t.Teardown();
  std::filesystem::remove_all(dir);
  return out;
}

// ---- analyst_backfill --------------------------------------------------------

// The analyst mix's expected answers, computed by brute force over the
// appended responses (append order = delivery order).
class BruteForce {
 public:
  BruteForce(const WorkloadInput& in, const std::vector<Delivery>& appended)
      : in_(in), appended_(appended), histories_(ExpectedHistories(in, appended)) {}

  const core::MobilitySemanticsSequence& History(uint32_t session) const {
    return histories_[session];
  }

  std::vector<store::RegionVisit> RegionVisitors(dsm::RegionId region, TimestampMs t0,
                                                 TimestampMs t1) const {
    std::vector<store::RegionVisit> out;
    TimeRange window{t0, t1};
    for (const Delivery& d : appended_) {
      for (const core::MobilitySemantic& s : d.semantics.semantics) {
        if (s.region == region && s.range.Overlaps(window)) {
          out.push_back({d.semantics.device_id, s});
        }
      }
    }
    return out;
  }

  std::vector<const core::MobilitySemanticsSequence*> SequencesInRange(TimestampMs t0,
                                                                       TimestampMs t1) const {
    std::vector<const core::MobilitySemanticsSequence*> out;
    TimeRange window{t0, t1};
    for (const Delivery& d : appended_) {
      for (const core::MobilitySemantic& s : d.semantics.semantics) {
        if (s.range.Overlaps(window)) {
          out.push_back(&d.semantics);
          break;
        }
      }
    }
    return out;
  }

  size_t FlowBetween(dsm::RegionId from, dsm::RegionId to) const {
    size_t count = 0;
    for (const Delivery& d : appended_) {
      dsm::RegionId prev = dsm::kInvalidRegion;
      for (const core::MobilitySemantic& s : d.semantics.semantics) {
        if (s.region == dsm::kInvalidRegion) continue;
        if (prev == from && s.region == to && prev != s.region) ++count;
        prev = s.region;
      }
    }
    return count;
  }

  const core::MobilityAnalytics& Analytics() {
    if (analytics_ == nullptr) {
      analytics_ = std::make_unique<core::MobilityAnalytics>(in_.venues[0].dsm.get());
      for (const Delivery& d : appended_) analytics_->AddSequence(d.semantics);
    }
    return *analytics_;
  }

 private:
  const WorkloadInput& in_;
  const std::vector<Delivery>& appended_;
  std::vector<core::MobilitySemanticsSequence> histories_;
  std::unique_ptr<core::MobilityAnalytics> analytics_;
};

// Total order for comparing visit lists as multisets.
bool VisitLess(const store::RegionVisit& a, const store::RegionVisit& b) {
  auto key = [](const store::RegionVisit& v) {
    return std::tie(v.visit.range.begin, v.device_id, v.visit.range.end, v.visit.region,
                    v.visit.event, v.visit.region_name, v.visit.inferred);
  };
  return key(a) < key(b);
}

bool SameVisits(std::vector<store::RegionVisit> got, std::vector<store::RegionVisit> want) {
  // The store orders by (begin, device, end); ties may come in any order.
  for (size_t i = 1; i < got.size(); ++i) {
    const auto& a = got[i - 1].visit.range;
    const auto& b = got[i].visit.range;
    if (std::tie(a.begin, got[i - 1].device_id, a.end) > std::tie(b.begin, got[i].device_id, b.end)) {
      return false;
    }
  }
  std::sort(got.begin(), got.end(), VisitLess);
  std::sort(want.begin(), want.end(), VisitLess);
  return got == want;
}

bool SameAnalytics(const core::MobilityAnalytics& a, const core::MobilityAnalytics& b) {
  return a.SequenceCount() == b.SequenceCount() && a.FlowMatrix() == b.FlowMatrix() &&
         a.FormatReport(1000) == b.FormatReport(1000);
}

RepOutcome RunBatchRep(Context& ctx, size_t rep, bool score_quality, TraceData* trace) {
  const WorkloadInput& in = *ctx.input;
  Tally& tally = *ctx.tally;
  Tracer* tracer = trace != nullptr ? &trace->tracer : nullptr;
  RepOutcome out;
  const std::string dir = ctx.options->work_dir + "/rep-" + std::to_string(rep);
  std::filesystem::remove_all(dir);
  std::vector<std::shared_ptr<const core::Engine>> engines;
  std::unique_ptr<core::Service> service;
  std::unique_ptr<core::BatchSession> batch;
  std::unique_ptr<store::TripStore> store;
  std::shared_ptr<obs::MetricsRegistry> registry;
  auto teardown = [&] {
    store.reset();
    batch.reset();
    service.reset();
    engines.clear();
    std::filesystem::remove_all(dir);
  };
  auto open_options = [&] {
    // The store keeps its default of no workers: scans run on the calling
    // thread (the two pool workers belong to the batch service).
    store::StoreOptions options;
    options.directory = dir;
    options.metrics = registry;
    return options;
  };

  // ---- set-up --------------------------------------------------------------
  {
    CallSpan setup_span(tracer, "setup", 0, 0, nullptr);
    auto training = TrainingCopies(in);
    const uint64_t t0 = obs::NowNanos();
    Status st = BuildEngines(ctx, std::move(training), tracer, setup_span.id(), &engines);
    if (st.ok()) {
      {
        CallSpan span(tracer, "Service::Service", setup_span.id(), 0, nullptr);
        core::ServiceOptions options;
        options.worker_threads = kWorkers;
        service = std::make_unique<core::Service>(engines[0], options);
        registry = service->stats_registry();
      }
      {
        CallSpan span(tracer, "Service::NewBatchSession", setup_span.id(), 0, nullptr);
        batch = service->NewBatchSession();
      }
      CallSpan span(tracer, spans::kStoreOpen, setup_span.id(), 0, nullptr);
      auto opened = store::TripStore::Open(open_options());
      tally.Op(opened.status(), "TripStore::Open");
      st = opened.status();
      if (opened.ok()) store = std::move(opened).ValueOrDie();
    }
    out.setup_s = static_cast<double>(obs::NowNanos() - t0) / 1e9;
    if (!st.ok()) {
      teardown();
      return out;
    }
  }
  obs::Histogram* pool_wait = registry->histogram("pool.task_wait_ns");
  auto waited = [&] { return pool_wait->Summarize().sum; };
  engines[0]->ResetSpatialProbes();
  obs::MetricsSnapshot snap_before = registry->Snap();

  // ---- backfill: hourly chunks through Submit, appended, flushed ----------------
  std::vector<Delivery> appended;
  RssTracker rss;
  if (rep == 0) rss.Reset();  // as in RunStreamRep
  const uint64_t cpu_start = ProcessCpuNs();
  const uint64_t window_start = obs::NowNanos();
  {
    CallSpan backfill(tracer, spans::kBackfill, 0, 0, nullptr);
    for (size_t c = 0; c < in.chunks.size(); ++c) {
      const uint64_t submit_start = obs::NowNanos();
      Result<core::TranslationResponse> response = Status::Internal("not submitted");
      {
        CallSpan span(tracer, spans::kSubmit, backfill.id(), 0, nullptr);
        uint64_t w0 = tracer != nullptr ? waited() : 0;
        response = batch->Submit(ctx.requests[c]);
        if (tracer != nullptr) trace->pool_wait[span.id()] = static_cast<double>(waited() - w0);
        tally.Op(response.status(), "BatchSession::Submit");
      }
      if (!response.ok()) continue;
      {
        CallSpan span(tracer, spans::kStoreAppendResponse, backfill.id(), 0, nullptr);
        tally.Op(store->AppendResponse(*response), "TripStore::AppendResponse");
      }
      // One lag per chunk: every result of a chunk is stored at once.
      const double lag_ms = Ms(obs::NowNanos() - submit_start);
      out.lag_ms.push_back(lag_ms);
      size_t records = 0;
      for (const positioning::PositioningSequence& seq : ctx.requests[c].sequences) {
        records += seq.records.size();
      }
      tally.Check(response->total_records == records && response->results.size() == in.chunks[c].size(),
                  "Submit translated every offered record of chunk " + std::to_string(c));
      core::TranslationResponse taken = std::move(response).ValueOrDie();
      for (core::TranslationResult& r : taken.results) {
        Delivery d;
        auto it = ctx.index.find(r.semantics.device_id);
        d.session = it == ctx.index.end() ? UINT32_MAX : it->second;
        d.records = static_cast<uint32_t>(r.raw.records.size());
        d.call = kCallSubmit;
        d.in_window = true;
        d.lag_ms = lag_ms;
        d.semantics = std::move(r.semantics);
        appended.push_back(std::move(d));
      }
    }
    CallSpan span(tracer, spans::kStoreFlush, backfill.id(), 0, nullptr);
    tally.Op(store->Flush(), "TripStore::Flush");
  }
  const uint64_t window_end = obs::NowNanos();
  const uint64_t cpu_end = ProcessCpuNs();
  out.window_s = static_cast<double>(window_end - window_start) / 1e9;
  out.replay_s = out.window_s;
  out.cpu_s = static_cast<double>(cpu_end - cpu_start) / 1e9;
  if (rep == 0) out.peak_rss_mb = rss.PeakAboveResetMb();
  out.window_records = in.total_records;
  obs::MetricsSnapshot snap_after = registry->Snap();

  store->WaitForCompaction();
  const uint64_t bytes = trace != nullptr ? DiskBytes(dir) : 0;
  const store::StoreStats written = store->Stats();
  store.reset();

  // ---- cold reopen (part of set-up) and the analyst mix --------------------------
  {
    const uint64_t t0 = obs::NowNanos();
    CallSpan span(tracer, spans::kStoreOpen, 0, 0, nullptr);
    auto reopened = store::TripStore::Open(open_options());
    tally.Op(reopened.status(), "TripStore::Open (cold)");
    out.setup_s += static_cast<double>(obs::NowNanos() - t0) / 1e9;
    if (!reopened.ok()) {
      teardown();
      return out;
    }
    store = std::move(reopened).ValueOrDie();
  }
  BruteForce brute(in, appended);
  const dsm::Dsm* dsm = in.venues[0].dsm.get();
  for (int pass = 0; pass < kAnalystPasses; ++pass) {
    const bool verify = pass == 0;
    CallSpan queries(tracer, "analyst-mix", 0, 0, nullptr);
    for (const Query& q : in.queries) {
      bool ok = true;
      uint64_t q0 = 0, q1 = 0;
      CallSpan span(tracer, QueryName(q.kind), queries.id(),
                    q.kind == QueryKind::kDeviceHistory ? q.session + 1 : 0, nullptr);
      switch (q.kind) {
        case QueryKind::kDeviceHistory: {
          q0 = obs::NowNanos();
          core::MobilitySemanticsSequence h = store->DeviceHistory(in.sessions[q.session].device);
          q1 = obs::NowNanos();
          if (verify) ok = SameSequence(h, brute.History(q.session));
          break;
        }
        case QueryKind::kRegionVisitors: {
          q0 = obs::NowNanos();
          std::vector<store::RegionVisit> v = store->RegionVisitors(q.from, q.t0, q.t1);
          q1 = obs::NowNanos();
          if (verify) ok = SameVisits(std::move(v), brute.RegionVisitors(q.from, q.t0, q.t1));
          break;
        }
        case QueryKind::kSequencesInRange: {
          q0 = obs::NowNanos();
          std::vector<core::MobilitySemanticsSequence> got = store->SequencesInRange(q.t0, q.t1);
          q1 = obs::NowNanos();
          if (!verify) break;
          std::vector<const core::MobilitySemanticsSequence*> want =
              brute.SequencesInRange(q.t0, q.t1);
          ok = got.size() == want.size();
          for (size_t i = 0; ok && i < got.size(); ++i) ok = SameSequence(got[i], *want[i]);
          break;
        }
        case QueryKind::kFlowBetween: {
          q0 = obs::NowNanos();
          size_t flow = store->FlowBetween(q.from, q.to);
          q1 = obs::NowNanos();
          if (verify) ok = flow == brute.FlowBetween(q.from, q.to);
          break;
        }
        case QueryKind::kBuildAnalytics: {
          q0 = obs::NowNanos();
          core::MobilityAnalytics a = store->BuildAnalytics(dsm);
          q1 = obs::NowNanos();
          if (verify) ok = SameAnalytics(a, brute.Analytics());
          break;
        }
      }
      out.query_ms.push_back(Ms(q1 - q0));
      if (verify) tally.Check(ok, std::string(QueryName(q.kind)) + " equals the brute-force answer");
    }
  }
  const store::StoreStats reread = store->Stats();

  // ---- correctness and quality -----------------------------------------------
  bool known = true;
  for (const Delivery& d : appended) known = known && d.session < in.sessions.size();
  tally.Check(known, "every result belongs to an offered device");
  tally.Check(appended.size() == in.sessions.size(), "one result per submitted sequence");
  tally.Check(written.sequences == appended.size() && reread.sequences == appended.size(),
              "StoreStats::sequences equals results appended, before and after reopen");
  Agreement agreement;
  for (uint32_t s = 0; s < in.sessions.size(); ++s) {
    core::MobilitySemanticsSequence h = store->DeviceHistory(in.sessions[s].device);
    tally.Check(SameSequence(h, brute.History(s)),
                "stored history equals delivered semantics for " + in.sessions[s].device);
    if (score_quality) agreement.Add(in.sessions[s].semantics, h);
  }
  if (agreement.evaluated > 0) {
    out.region_match = agreement.region / agreement.evaluated;
    out.event_match = agreement.event / agreement.evaluated;
  }

  if (trace != nullptr) {
    trace->replay_ns = static_cast<double>(window_end - window_start);
    MetricMap& m = trace->metrics;
    std::vector<Span> all = trace->tracer.Collect();
    // No stream session in this workload: its layer is bypassed.
    const std::pair<const char*, const char*> bypassed[] = {
        {"session.ingest_ns", "ns"},          {"session.inline_flushes", "count"},
        {"session.inline_flush_ms", "ms"},    {"session.poll_ms", "ms"},
        {"session.poll_p99_ms", "ms"},        {"session.empty_poll_fraction", "fraction"},
        {"session.drain_ms", "ms"},           {"session.records_per_flush", "records"}};
    for (const auto& [name, unit] : bypassed) Put(&m, name, 0, unit, 0);
    Put(&m, "cluster.venue_skew", 1.0, "ratio", 1);
    CommonLayerMetrics(engines, snap_before, snap_after, trace->replay_ns, in.total_records, &m);
    std::vector<double> submit_ms, lookup_us, window_us, analytics_ms, open_ms, flush_ms;
    for (const Span& s : all) {
      std::string_view name(s.name);
      double us = static_cast<double>(s.Duration()) / 1e3;
      if (name == spans::kSubmit) submit_ms.push_back(us / 1e3);
      if (name == spans::kStoreFlush) flush_ms.push_back(us / 1e3);
      if (name == spans::kStoreOpen && s.parent == 0) open_ms.push_back(us / 1e3);
      if (name == QueryName(QueryKind::kDeviceHistory)) lookup_us.push_back(us);
      if (name == QueryName(QueryKind::kRegionVisitors) ||
          name == QueryName(QueryKind::kSequencesInRange)) {
        window_us.push_back(us);
      }
      if (name == QueryName(QueryKind::kBuildAnalytics)) analytics_ms.push_back(us / 1e3);
    }
    Put(&m, "store.persist_ms", Sum(flush_ms), "ms", flush_ms.size());
    Put(&m, "store.bytes_per_triplet",
        written.triplets ? static_cast<double>(bytes) / written.triplets : 0, "B",
        written.triplets);
    Put(&m, "store.segments", static_cast<double>(written.segments), "count", 1);
    Put(&m, "store.open_ms", Sum(open_ms), "ms", open_ms.size());
    Put(&m, "store.lookup_p50_us", Quantile(lookup_us, 0.5), "us", lookup_us.size());
    Put(&m, "store.lookup_p99_us", Quantile(lookup_us, 0.99), "us", lookup_us.size());
    Put(&m, "store.window_p50_us", Quantile(window_us, 0.5), "us", window_us.size());
    Put(&m, "store.window_p99_us", Quantile(window_us, 0.99), "us", window_us.size());
    Put(&m, "store.analytics_ms", Median(analytics_ms), "ms", analytics_ms.size());
    Put(&m, "store.materialized_fraction",
        reread.segments ? static_cast<double>(reread.materialized_segments) / reread.segments : 0,
        "fraction", reread.segments);
    Put(&m, "batch.ns_per_record", Sum(submit_ms) * 1e6 / in.total_records, "ns",
        submit_ms.size());

    std::vector<const core::Engine*> raw_engines = {engines[0].get()};
    trace->pass = RunLayerPass(in, raw_engines, appended);
    Put(&m, "batch.knowledge_ms", trace->pass.by_call[kCallSubmit].knowledge / 1e6, "ms",
        in.chunks.size());
    trace->deliveries = std::move(appended);
    LedgerInput li;
    li.wall_ns = trace->replay_ns;
    li.spans = &all;
    li.deliveries = &trace->deliveries;
    li.pass = &trace->pass;
    li.pool_wait = &trace->pool_wait;
    trace->ledger = BuildLedger(li);
  }
  teardown();
  return out;
}

RepOutcome RunRep(Context& ctx, size_t rep, bool score_quality, TraceData* trace) {
  return ctx.input->target == Target::kBatch ? RunBatchRep(ctx, rep, score_quality, trace)
                                             : RunStreamRep(ctx, rep, score_quality, trace);
}

// ---- reporting -------------------------------------------------------------------

// The mean of the better half of the per-rep values: the lower half of a
// time, the upper half of a rate.
struct Estimate {
  double value = 0;
  uint64_t samples = 0;  ///< behind the reps used
};
Estimate BetterHalfMean(const std::vector<double>& values, const std::vector<uint64_t>& samples,
                        bool higher_is_better) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return higher_is_better ? values[a] > values[b] : values[a] < values[b];
  });
  Estimate e;
  const size_t used = (order.size() + 1) / 2;
  for (size_t i = 0; i < used; ++i) {
    e.value += values[order[i]];
    e.samples += samples[order[i]];
  }
  if (used > 0) e.value /= static_cast<double>(used);
  return e;
}

// Rep 0 warms the process: it is checked but not timed. Every timing is a
// per-rep figure (a rate over the rep's window, or a percentile over its
// samples), averaged over the better half of the timed reps. The host only
// ever slows a rep down: other tenants take its vCPUs or share their cores
// for stretches of a few seconds, and one stalled Poll sets a rep's lag tail
// (perfbench/README.md has the measurements). The better half leaves the reps
// that were hit out, as long as fewer than half were, and still averages
// enough reps to smooth the rest. Set-up is the median over every rep.
// Memory is rep 0's: in later reps part of what the work needs is heap the
// allocator kept from earlier reps, so their growth depends on allocation
// history.
void EndToEndMetrics(const std::vector<RepOutcome>& reps, MetricMap* m) {
  std::vector<double> setup, rate, cpu_rate, lag50, lag99, q50, q99;
  std::vector<uint64_t> records, lags, queries;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepOutcome& r = reps[i];
    setup.push_back(r.setup_s);
    if (i == 0 && reps.size() > 1) continue;
    rate.push_back(r.window_s > 0 ? r.window_records / r.window_s : 0);
    cpu_rate.push_back(r.cpu_s > 0 ? r.window_records / r.cpu_s : 0);
    records.push_back(r.window_records);
    lags.push_back(r.lag_ms.size());
    queries.push_back(r.query_ms.size());
    lag50.push_back(Quantile(r.lag_ms, 0.5));
    lag99.push_back(Quantile(r.lag_ms, 0.99));
    q50.push_back(Quantile(r.query_ms, 0.5));
    q99.push_back(Quantile(r.query_ms, 0.99));
  }
  auto put = [m](const char* name, const std::vector<double>& values,
                 const std::vector<uint64_t>& samples, bool higher, const char* unit) {
    Estimate e = BetterHalfMean(values, samples, higher);
    Put(m, name, e.value, unit, e.samples);
  };
  put("records_per_s", rate, records, true, "rec/s");
  put("records_per_cpu_s", cpu_rate, records, true, "rec/CPU-s");
  put("stored_lag_p50_ms", lag50, lags, false, "ms");
  put("stored_lag_p99_ms", lag99, lags, false, "ms");
  put("query_p50_ms", q50, queries, false, "ms");
  put("query_p99_ms", q99, queries, false, "ms");
  Put(m, "region_match", reps.front().region_match, "fraction", 1);
  Put(m, "event_match", reps.front().event_match, "fraction", 1);
  Put(m, "setup_s", Median(setup), "s", reps.size());
  Put(m, "peak_rss_mb", reps.front().peak_rss_mb, "MB", 1);
}

std::string RepTable(const std::vector<RepOutcome>& reps) {
  std::string out =
      "rep  setup_s  window_s  rec/s      rec/CPU-s  lag_p50  lag_p99  q_p50     q_p99     rss_MB\n";
  char line[256];
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepOutcome& r = reps[i];
    std::snprintf(line, sizeof(line),
                  "%-4zu %-8.4f %-9.4f %-10.0f %-10.0f %-8.3f %-8.3f %-9.6f %-9.6f %-8.1f\n", i,
                  r.setup_s, r.window_s, r.window_s > 0 ? r.window_records / r.window_s : 0,
                  r.cpu_s > 0 ? r.window_records / r.cpu_s : 0, Quantile(r.lag_ms, 0.5),
                  Quantile(r.lag_ms, 0.99), Quantile(r.query_ms, 0.5),
                  Quantile(r.query_ms, 0.99), r.peak_rss_mb);
    out += line;
  }
  return out;
}

void LayerPassMetrics(const LayerPassResult& p, MetricMap* m) {
  double n = p.records > 0 ? static_cast<double>(p.records) : 1;
  const RowCosts& c = p.total;
  Put(m, "block.sort_ns_per_record", c.sort / n, "ns", p.records);
  Put(m, "block.materialize_ns_per_record", c.materialize / n, "ns", p.records);
  Put(m, "cleaning.ns_per_record", p.clean_ns / n, "ns", p.records);
  Put(m, "cleaning.scan_ns_per_record", c.scan / n, "ns", p.records);
  Put(m, "cleaning.interpolate_ns_per_record", c.interpolate / n, "ns", p.records);
  Put(m, "cleaning.smooth_ns_per_record", c.smooth / n, "ns", p.records);
  Put(m, "cleaning.snap_ns_per_record", c.snap / n, "ns", p.records);
  Put(m, "cleaning.snapped_fraction", p.snapped / n, "fraction", p.records);
  Put(m, "cleaning.interpolated_fraction", p.interpolated / n, "fraction", p.records);
  Put(m, "annotation.split_ns_per_record", c.split / n, "ns", p.records);
  Put(m, "annotation.annotate_ns_per_record", c.annotate / n, "ns", p.records);
  Put(m, "annotation.snippets_per_sequence",
      p.sequences ? static_cast<double>(p.snippets) / p.sequences : 0, "count", p.sequences);
  Put(m, "complement.us_per_sequence", p.sequences ? c.complement / p.sequences / 1e3 : 0, "us",
      p.sequences);
  Put(m, "complement.gap_fill_ratio",
      p.gaps_found ? static_cast<double>(p.gaps_filled) / p.gaps_found : 0, "fraction",
      p.gaps_found);
  Put(m, "cleaning.rmse_m", p.rmse_m, "m", p.records);
  Put(m, "cleaning.floor_error_rate", p.floor_error_rate, "fraction", p.records);
  Put(m, "annotation.event_match", p.annotation_event_match, "fraction", p.sequences);
  Put(m, "complement.gap_region_match", p.gap_region_match, "fraction", p.gap_samples);
  Put(m, "layerpass.records_per_s", p.wall_ns > 0 ? p.records / (p.wall_ns / 1e9) : 0, "rec/s",
      p.records);
}

std::string LedgerTable(const std::vector<LedgerRow>& rows, double wall_ns, uint64_t records) {
  std::string out = "ledger (replay wall " + std::to_string(wall_ns / 1e6) + " ms over " +
                    std::to_string(records) + " records)\n";
  out += "row                ns/record   share\n";
  char line[128];
  for (const LedgerRow& r : rows) {
    std::snprintf(line, sizeof(line), "%-18s %10.1f  %6.2f%%\n", r.name.c_str(),
                  records ? r.ns / records : 0, wall_ns > 0 ? 100.0 * r.ns / wall_ns : 0);
    out += line;
  }
  return out;
}

}  // namespace

RunOutput RunWorkload(const WorkloadInput& input, const RunOptions& options) {
  RunOutput result;
  Tally tally;
  Context ctx;
  ctx.input = &input;
  ctx.options = &options;
  ctx.tally = &tally;
  for (uint32_t s = 0; s < input.sessions.size(); ++s) ctx.index[input.sessions[s].device] = s;
  for (const auto& chunk : input.chunks) {
    core::TranslationRequest request;
    request.learn_knowledge = true;
    for (uint32_t s : chunk) {
      positioning::PositioningSequence seq;
      seq.device_id = input.sessions[s].device;
      seq.records = input.sessions[s].raw;
      request.sequences.push_back(std::move(seq));
    }
    ctx.requests.push_back(std::move(request));
  }

  std::vector<RepOutcome> reps;
  const uint64_t start = obs::NowNanos();
  auto elapsed_s = [&] { return static_cast<double>(obs::NowNanos() - start) / 1e9; };
  if (!options.trace) {
    // Fresh set-up per rep, reps until the run's measuring time is spent.
    while (reps.size() < kMinReps || (elapsed_s() < options.seconds && reps.size() < kMaxReps)) {
      reps.push_back(RunRep(ctx, reps.size(), true, nullptr));
      if (tally.failed > 0) break;
    }
    // Quality is exact per seed: every rep must agree with the first.
    for (size_t i = 1; i < reps.size(); ++i) {
      tally.Check(reps[i].region_match == reps[0].region_match &&
                      reps[i].event_match == reps[0].event_match,
                  "ground-truth agreement identical across reps");
    }
    EndToEndMetrics(reps, &result.metrics);
    result.text = RepTable(reps);
  } else {
    for (size_t i = 0; i < kTraceBaselineReps && tally.failed == 0; ++i) {
      reps.push_back(RunRep(ctx, reps.size(), false, nullptr));
    }
    TraceData trace;
    if (tally.failed == 0) RunRep(ctx, reps.size(), false, &trace);
    // Each buffer the layer pass re-translated is one operation: it fails
    // unless the pass reproduced the delivered semantics byte for byte.
    const LayerPassResult& pass = trace.pass;
    tally.attempted += pass.compared - std::min(pass.compared, pass.mismatches);
    for (uint64_t i = 0; i < pass.mismatches; ++i) {
      tally.Fail(i < pass.messages.size() ? pass.messages[i] : "layer pass mismatch");
    }
    tally.Check(pass.compared == trace.deliveries.size(),
                "layer pass re-translated every delivered result");
    result.metrics = trace.metrics;
    LayerPassMetrics(pass, &result.metrics);
    std::vector<double> baseline;
    for (const RepOutcome& r : reps) baseline.push_back(r.replay_s);
    double base_ns = Median(baseline) * 1e9;
    Put(&result.metrics, "trace.overhead_pct",
        base_ns > 0 ? 100.0 * (trace.replay_ns / base_ns - 1.0) : 0, "%", reps.size());
    for (const LedgerRow& row : trace.ledger) {
      Put(&result.metrics, "ledger." + row.name + "_ns_per_record",
          input.total_records ? row.ns / input.total_records : 0, "ns", input.total_records);
    }
    if (!trace.ledger.empty()) {
      Put(&result.metrics, "ledger.unattributed_pct",
          trace.replay_ns > 0 ? 100.0 * trace.ledger.back().ns / trace.replay_ns : 0, "%", 1);
    }
    result.text = LedgerTable(trace.ledger, trace.replay_ns, input.total_records);
    result.trace_file = options.out_dir + "/" + input.name + "-seed" +
                        std::to_string(options.seed) + ".trace.json";
    bool written =
        trace.tracer.WriteChromeTrace(result.trace_file, spans::kClusterIngest, options.metadata);
    tally.Check(written, "trace file written");
  }
  result.reps = reps.size();
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.failures = tally.messages;
  result.correct = tally.failed == 0;
  return result;
}

}  // namespace perfbench
