// Fixed-size thread pool with a blocking task queue and a parallel_for
// convenience wrapper.
//
// The contract-design pipeline decomposes the bilevel program into
// independent per-worker subproblems (paper §IV); the pool is how we solve
// them in parallel. Exceptions thrown by tasks submitted through
// parallel_for are captured and rethrown on the calling thread: the first
// failure is rethrown verbatim, and when several chunks threw, the count of
// the additional failures is appended to its message ("(+K more task
// failures)" — attached as ErrorContext::suppressed_failures for ccd::Error,
// re-wrapped as std::runtime_error otherwise), so no failure is silently
// lost.
//
// Threading model:
//  * parallel_for splits [0, n) into at most 4 chunks per thread and
//    queues one runner per pool thread (at most one per chunk). Each
//    runner claims chunks from a counter shared by the call until none is
//    left, so a call costs thread_count() queue handoffs and one wake-up
//    of the caller, not one task and one future per chunk.
//  * parallel_for is reentrant. When called from one of the pool's own
//    worker threads it runs every index inline on the caller: the outer
//    task already occupies a worker slot and would otherwise wait for
//    runners that can never be scheduled (deadlock once all slots are
//    held by blocked outer tasks).
//  * A process-wide pool is available via shared_pool(). It is created on
//    first use and lives until the process exits: it is never destroyed,
//    so no thread joins race other objects during static destruction.
//  * After shutdown() a pool keeps working in degraded form: parallel_for
//    runs inline and submit throws.
//
// Observability: every pool reports into the process-wide `ccd.pool.*`
// metrics — queue depth and busy-worker gauges, a task-latency histogram
// (execution time of each dequeued task, microseconds), and a completed-
// task counter. A parallel_for runner is one task; its metrics are
// recorded before it reports to the caller, so they are complete when
// parallel_for returns. `ccd.pool.threads` carries the shared pool's size.
// See util/metrics.hpp for the export paths and the runtime disarm switch.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/cancellation.hpp"
#include "util/metrics.hpp"

namespace ccd::util {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads still attached (0 after shutdown()).
  std::size_t thread_count() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Stop accepting new work, drain the queue, and join all workers.
  /// Idempotent; must not be called from one of the pool's own tasks.
  /// The destructor calls it implicitly.
  void shutdown();

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.push(Job{[task] { (*task)(); }});
      // Stored under the lock, so the last store is the current depth.
      queue_depth_->set(static_cast<double>(queue_.size()));
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n), blocking until all complete.
  /// Rethrows the first task exception on the caller, with the number of
  /// additional (suppressed) task failures appended to its message.
  /// Reentrant: nested calls from a worker of this pool (and calls after
  /// shutdown) run inline on the calling thread.
  ///
  /// When `cancel` is non-null, cancellation is cooperative and silent:
  /// each chunk re-polls the token (latching deadline expiry) and each
  /// index checks the cheap cancelled() flag; indices not yet started are
  /// skipped, indices already running finish normally, and parallel_for
  /// returns without throwing. Callers that need to know inspect
  /// cancel->cancelled() afterwards and render their own partial result.
  ///
  /// A runner stops at its first failing index, so at most
  /// thread_count() indices fail per call.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    const CancellationToken* cancel = nullptr);

 private:
  /// One parallel_for call's chunk counter, failure record and runner
  /// count, shared by its runners (defined in thread_pool.cpp).
  struct ForBatch;

  /// A queued unit of work: a submit()ted task, or a runner of `batch`.
  struct Job {
    std::function<void()> task;
    ForBatch* batch = nullptr;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Job> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Observability handles (process-wide `ccd.pool.*` metrics, aggregated
  // across every pool). Resolved once at construction; all mutation is
  // lock-free and disarms to a branch under metrics::set_enabled(false).
  metrics::Counter* tasks_completed_;
  metrics::Histogram* task_us_;
  metrics::Gauge* queue_depth_;
  metrics::Gauge* busy_workers_;
};

/// The process-wide shared pool (hardware concurrency). Constructed on
/// first use and deliberately leaked: it lives until the process exits,
/// and its threads are never joined during static destruction.
ThreadPool& shared_pool();

}  // namespace ccd::util
