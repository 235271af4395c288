// A small fixed-size worker pool shared by all sessions of a core::Service.
// Designed for fork/join fan-out over independent items: ParallelFor blocks
// the caller until every item is processed, and the calling thread itself
// participates in the work, so a pool with zero workers degrades to a plain
// serial loop (useful for deterministic single-threaded runs and for
// environments without threading headroom).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace trips::util {

/// Observability hooks of a ThreadPool. Every pointer may be null (that
/// metric is simply not recorded); the pointed-to metrics must outlive the
/// pool. Wired by core::Service / cluster::Cluster from their registries.
struct PoolMetrics {
  /// Helper tasks currently waiting in the shared FIFO queue.
  obs::Gauge* queue_depth = nullptr;
  /// Enqueue -> dequeue wall time of each helper task (how long work sat in
  /// the queue before a worker picked it up — the saturation signal).
  obs::Histogram* task_wait_ns = nullptr;
  /// Execution wall time of each helper task (one task drains many
  /// ParallelFor items, so this is per drain, not per item).
  obs::Histogram* task_run_ns = nullptr;
  /// Helper tasks executed by pool workers.
  obs::Counter* tasks_run = nullptr;
};

/// Fixed pool of worker threads with a shared FIFO task queue. All public
/// methods are thread-safe; ParallelFor may be called concurrently from many
/// threads (each call joins only its own items).
class ThreadPool {
 public:
  /// Spawns `workers` threads. 0 is valid: every ParallelFor then runs
  /// entirely on the calling thread.
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool worker threads (excluding callers that join in).
  size_t worker_count() const { return threads_.size(); }

  /// Installs the observability hooks. Call once, before the pool is shared
  /// with other threads (not synchronized against in-flight ParallelFor).
  /// The caller-drain path of ParallelFor is not queued and therefore not
  /// measured; only helper tasks executed by pool workers are.
  void SetMetrics(const PoolMetrics& metrics) { metrics_ = metrics; }

  /// Runs fn(i) once for every i in [0, n), spread over the pool workers and
  /// the calling thread, and returns when all n calls finished. `fn` must be
  /// safe to invoke concurrently with distinct arguments. Helper tasks that
  /// no worker started before the caller claimed the last item are taken
  /// back out of the queue, so none outlives the call.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues one fire-and-forget task for a pool worker (background
  /// maintenance: store compaction, deferred rebuilds). With zero workers the
  /// task runs inline on the calling thread before Submit returns, so callers
  /// get the same completion guarantees in deterministic serial mode. Tasks
  /// still queued at destruction are drained by the exiting workers — a
  /// submitted task always runs exactly once.
  void Submit(std::function<void()> fn);

 private:
  /// One queued helper task plus its enqueue stamp (0 when wait timing is
  /// off, so the fast path never reads the clock) and the ParallelFor call
  /// that posted it (null for Submit tasks).
  struct Task {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
    const void* owner = nullptr;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
  PoolMetrics metrics_;
};

}  // namespace trips::util
