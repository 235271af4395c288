#include "util/thread_pool.h"

#include <atomic>
#include <memory>

namespace trips::util {

ThreadPool::ThreadPool(size_t workers) {
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Sub(1);
    if (task.enqueue_ns != 0 && metrics_.task_wait_ns != nullptr) {
      metrics_.task_wait_ns->Record(obs::NowNanos() - task.enqueue_ns);
    }
    {
      obs::StageTimer run_timer(metrics_.task_run_ns);
      task.fn();
    }
    if (metrics_.tasks_run != nullptr) metrics_.tasks_run->Add(1);
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (threads_.empty()) {
    fn();
    return;
  }
  uint64_t enqueue_ns =
      (metrics_.task_wait_ns != nullptr && metrics_.task_wait_ns->recording())
          ? obs::NowNanos()
          : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Task{std::move(fn), enqueue_ns});
    if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Add(1);
  }
  work_cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Per-call join state, shared with the helper tasks posted to the queue.
  struct JoinState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<JoinState>();

  auto drain = [state, n, &fn] {
    for (;;) {
      size_t i = state->next.fetch_add(1);
      if (i >= n) break;
      fn(i);
      if (state->done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->done_cv.notify_all();
      }
    }
  };

  // One helper task per worker (bounded by n); the caller drains too, so
  // progress is guaranteed even when every worker is busy elsewhere.
  size_t helpers = std::min(threads_.size(), n - 1);
  uint64_t enqueue_ns =
      (metrics_.task_wait_ns != nullptr && metrics_.task_wait_ns->recording())
          ? obs::NowNanos()
          : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < helpers; ++i) {
      queue_.push_back(Task{drain, enqueue_ns, state.get()});
    }
    // Inside the lock so the gauge can never go transiently negative (a
    // worker cannot dequeue-and-Sub before this Add).
    if (metrics_.queue_depth != nullptr) {
      metrics_.queue_depth->Add(static_cast<int64_t>(helpers));
    }
  }
  for (size_t i = 0; i < helpers; ++i) work_cv_.notify_one();

  drain();
  // Every item is claimed: a helper still queued would wake a worker for
  // nothing, so take it back.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t queued = queue_.size();
    std::erase_if(queue_, [&](const Task& task) { return task.owner == state.get(); });
    if (metrics_.queue_depth != nullptr) {
      metrics_.queue_depth->Sub(static_cast<int64_t>(queued - queue_.size()));
    }
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->done.load() == n; });
}

}  // namespace trips::util
