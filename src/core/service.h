// The translation service: owns one immutable core::Engine plus a small
// shared worker pool, and hands out per-client sessions. This is the single
// front door for both batch and streaming translation of one venue;
// cluster::Cluster serves many venues with the same pool and metrics wiring
// (ResolveWorkerThreads, WirePoolMetrics, kEngineGauges below).
//
//     auto engine = core::Engine::Builder().SetDsm(std::move(mall)).Build();
//     core::Service service(engine.ValueOrDie(), {.worker_threads = 4});
//
//     auto batch = service.NewBatchSession();
//     auto response = batch->Submit({.sequences = selected});
//
//     auto stream = service.NewStreamSession();
//     stream->Ingest(device, record); ... stream->FlushAll();
//
// Thread-safety: the engine is immutable, the pool is internally
// synchronized, and every session is internally synchronized, so any number
// of sessions can be created and driven from any threads concurrently.
// Sessions must not outlive the service that created them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>

#include "core/engine.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace trips::core {

/// Service-level options.
struct ServiceOptions {
  /// Worker threads in the shared pool. kAutoWorkerThreads sizes the pool to
  /// the hardware (hardware_concurrency - 1, capped at 8); 0 makes every
  /// batch request run fully on its calling thread.
  static constexpr size_t kAutoWorkerThreads = static_cast<size_t>(-1);
  size_t worker_threads = kAutoWorkerThreads;
  /// Default flush policy for stream sessions created without explicit
  /// options.
  StreamOptions stream = {};
  /// Metrics registry the service and its sessions record into. Null (the
  /// default) makes the service create its own; pass one to share a registry
  /// across services or to start with recording disabled
  /// (std::make_shared<obs::MetricsRegistry>(false)). Recording never alters
  /// translation output.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// The pool size a worker_threads option resolves to: the option itself, or
/// for ServiceOptions::kAutoWorkerThreads hardware_concurrency - 1 capped at 8
/// (0 on a single core).
size_t ResolveWorkerThreads(size_t requested);

/// Points `pool`'s observability hooks at the pool.* metrics of `registry`
/// and publishes its worker count as pool.workers.
void WirePoolMetrics(util::ThreadPool& pool, obs::MetricsRegistry& registry);

/// One routing.* / spatial.* callback gauge: its /statsz name and how to read
/// it off one engine. A Service registers each over its engine, a Cluster
/// each summed over every venue's engine, so both export the same names.
struct EngineGauge {
  const char* name;
  int64_t (*read)(const Engine& engine);
};
extern const std::array<EngineGauge, 8> kEngineGauges;

/// Facade over one engine: creates batch and stream sessions that share it.
class Service {
 public:
  explicit Service(std::shared_ptr<const Engine> engine, ServiceOptions options = {});

  /// The shared immutable engine.
  const Engine& engine() const { return *engine_; }
  std::shared_ptr<const Engine> engine_ptr() const { return engine_; }
  /// Worker threads in the shared pool (0 = synchronous batches).
  size_t worker_count() const { return pool_.worker_count(); }

  /// Creates a batch session (its own adaptive knowledge, shared pool).
  std::unique_ptr<BatchSession> NewBatchSession();
  /// Creates a stream session with the service's default flush policy.
  std::unique_ptr<StreamSession> NewStreamSession();
  /// Creates a stream session with an explicit flush policy.
  std::unique_ptr<StreamSession> NewStreamSession(StreamOptions options);

  /// One-shot convenience: a fresh batch session, one Submit.
  Result<TranslationResponse> Translate(const TranslationRequest& request);

  /// The registry this service and its sessions record into (never null).
  /// Callback gauges for the engine's routing cache and spatial index are
  /// registered here at construction.
  const std::shared_ptr<obs::MetricsRegistry>& stats_registry() const {
    return metrics_;
  }

  /// Writes the /statsz JSON snapshot of stats_registry() to `out`.
  void DumpStatsz(std::ostream& out) const;

 private:
  std::shared_ptr<const Engine> engine_;
  ServiceOptions options_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // never null
  util::ThreadPool pool_;
};

}  // namespace trips::core
