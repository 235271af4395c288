#include "core/service.h"

#include <algorithm>
#include <thread>

#include "obs/statsz.h"

namespace trips::core {

size_t ResolveWorkerThreads(size_t requested) {
  if (requested != ServiceOptions::kAutoWorkerThreads) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 0;
  return std::min<size_t>(hw - 1, 8);
}

void WirePoolMetrics(util::ThreadPool& pool, obs::MetricsRegistry& registry) {
  pool.SetMetrics(util::PoolMetrics{
      registry.gauge("pool.queue_depth"),
      registry.histogram("pool.task_wait_ns"),
      registry.histogram("pool.task_run_ns"),
      registry.counter("pool.tasks_run"),
  });
  registry.gauge("pool.workers")->Set(static_cast<int64_t>(pool.worker_count()));
}

// Pull-style gauges over state the engine already maintains.
const std::array<EngineGauge, 8> kEngineGauges = {{
    {"routing.cache_hits",
     [](const Engine& e) { return static_cast<int64_t>(e.routing_cache_stats().hits); }},
    {"routing.cache_misses",
     [](const Engine& e) { return static_cast<int64_t>(e.routing_cache_stats().misses); }},
    {"routing.cache_evictions",
     [](const Engine& e) { return static_cast<int64_t>(e.routing_cache_stats().evictions); }},
    {"routing.cache_size",
     [](const Engine& e) { return static_cast<int64_t>(e.routing_cache_stats().size); }},
    {"spatial.partition_probes",
     [](const Engine& e) {
       return static_cast<int64_t>(e.spatial_probe_stats().partition_probes);
     }},
    {"spatial.region_probes",
     [](const Engine& e) { return static_cast<int64_t>(e.spatial_probe_stats().region_probes); }},
    {"spatial.snap_probes",
     [](const Engine& e) { return static_cast<int64_t>(e.spatial_probe_stats().snap_probes); }},
    {"spatial.snapped_outside",
     [](const Engine& e) {
       return static_cast<int64_t>(e.spatial_probe_stats().snapped_outside);
     }},
}};

Service::Service(std::shared_ptr<const Engine> engine, ServiceOptions options)
    : engine_(std::move(engine)),
      options_(options),
      metrics_(options.metrics != nullptr
                   ? options.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      pool_(ResolveWorkerThreads(options.worker_threads)) {
  WirePoolMetrics(pool_, *metrics_);
  // The callbacks co-own the engine, so they stay valid as long as the
  // registry lives.
  for (const EngineGauge& gauge : kEngineGauges) {
    metrics_->SetCallback(gauge.name, [eng = engine_, read = gauge.read] {
      return read(*eng);
    });
  }
}

std::unique_ptr<BatchSession> Service::NewBatchSession() {
  return std::make_unique<BatchSession>(engine_, &pool_, metrics_);
}

std::unique_ptr<StreamSession> Service::NewStreamSession() {
  return NewStreamSession(options_.stream);
}

std::unique_ptr<StreamSession> Service::NewStreamSession(StreamOptions options) {
  return std::make_unique<StreamSession>(engine_, options, &pool_, metrics_);
}

void Service::DumpStatsz(std::ostream& out) const {
  obs::DumpStatsz(*metrics_, out);
}

Result<TranslationResponse> Service::Translate(const TranslationRequest& request) {
  return NewBatchSession()->Submit(request);
}

}  // namespace trips::core
