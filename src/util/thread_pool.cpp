#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>

#include "util/error.hpp"

namespace ccd::util {
namespace {

// Identifies which pool (if any) owns the current thread; lets
// parallel_for detect nested use and fall back to inline execution.
thread_local const ThreadPool* tls_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  metrics::MetricsRegistry& reg = metrics::registry();
  tasks_completed_ = &reg.counter("ccd.pool.tasks");
  task_us_ = &reg.histogram("ccd.pool.task_us");
  queue_depth_ = &reg.gauge("ccd.pool.queue_depth");
  busy_workers_ = &reg.gauge("ccd.pool.busy_workers");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::on_worker_thread() const {
  return tls_current_pool == this;
}

void ThreadPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

// Shared by one parallel_for call's runners. It lives on the caller's
// stack: the caller returns only once every runner has reported through
// runner_done(), which is each runner's last access.
struct ThreadPool::ForBatch {
  ForBatch(const std::function<void(std::size_t)>& body, std::size_t count,
           std::size_t chunk, const CancellationToken* token,
           std::size_t runners)
      : fn(body), n(count), chunk_size(chunk), cancel(token),
        runners_left(runners) {}

  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  const std::size_t chunk_size;
  const CancellationToken* const cancel;

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> failure_count{0};

  std::mutex mutex;  ///< guards first_error and runners_left
  std::condition_variable all_done;
  std::exception_ptr first_error;
  std::size_t runners_left;

  /// Claim and run chunks until none is left, an index fails, or the call
  /// is cancelled. Never throws: a failing index is recorded instead.
  void run() {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          next_chunk.fetch_add(1, std::memory_order_relaxed) * chunk_size;
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk_size);
      // One deadline poll per chunk; per-index checks touch only the
      // already-latched flag so cancellation costs one relaxed load.
      if (cancel != nullptr && cancel->poll()) return;
      for (std::size_t i = begin; i < end; ++i) {
        if (failed.load(std::memory_order_relaxed)) return;
        if (cancel != nullptr && cancel->cancelled()) return;
        try {
          fn(i);
        } catch (...) {
          failure_count.fetch_add(1, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  }

  /// A runner's last access: the notify happens under the lock, so the
  /// caller cannot see zero and return before it is done.
  void runner_done() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (--runners_left == 0) all_done.notify_one();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [this] { return runners_left == 0; });
  }
};

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop();
      // Under the lock, like submit(): a store made after unlocking could
      // land after a newer one and leave a stale depth behind.
      queue_depth_->set(static_cast<double>(queue_.size()));
    }
    busy_workers_->add(1.0);
    {
      metrics::ScopedTimer timer(task_us_);
      if (job.batch != nullptr) {
        job.batch->run();
      } else {
        job.task();  // packaged_task captures exceptions into its future
      }
    }
    busy_workers_->add(-1.0);
    tasks_completed_->add(1);
    // After the metrics, so they are complete once parallel_for returns.
    if (job.batch != nullptr) job.batch->runner_done();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const CancellationToken* cancel) {
  if (n == 0) return;
  if (cancel != nullptr && cancel->poll()) return;
  const auto run_inline = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->poll()) return;
      fn(i);
    }
  };
  // Nested use: an outer task calling parallel_for on its own pool would
  // wait for runners that can only run on the slots the outer tasks hold.
  // Run inline instead (also the degraded mode after shutdown()).
  if (on_worker_thread() || workers_.empty()) {
    run_inline();
    return;
  }
  // Chunk so that each thread gets a handful of blocks; per-index dispatch
  // would drown small tasks in queue overhead. One runner per thread (at
  // most one per chunk) claims them, so the queue sees thread_count()
  // handoffs however many chunks there are.
  const std::size_t chunks =
      std::min<std::size_t>(n, thread_count() * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  const std::size_t runners =
      std::min(thread_count(), (n + chunk_size - 1) / chunk_size);

  ForBatch batch(fn, n, chunk_size, cancel, runners);
  bool queued = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A pool shutting down concurrently may already have lost its
    // workers; the call then degrades to inline like a stopped pool.
    if (!stopping_) {
      for (std::size_t r = 0; r < runners; ++r) {
        queue_.push(Job{{}, &batch});
      }
      queue_depth_->set(static_cast<double>(queue_.size()));
      queued = true;
    }
  }
  if (!queued) {
    run_inline();
    return;
  }
  for (std::size_t r = 0; r < runners; ++r) cv_.notify_one();
  batch.wait();
  if (!batch.first_error) return;

  // Rethrow the first failure; when other runners also threw, those
  // exceptions would otherwise vanish silently, so their count is appended
  // to the rethrown error ("(+K more task failures)").
  const std::exception_ptr first_error = batch.first_error;
  const std::size_t suppressed = batch.failure_count.load() - 1;
  if (suppressed == 0) std::rethrow_exception(first_error);
  try {
    std::rethrow_exception(first_error);
  } catch (Error& e) {
    // Mutate-and-rethrow preserves the dynamic exception type.
    e.with_suppressed_failures(suppressed);
    throw;
  } catch (const std::exception& e) {
    std::ostringstream os;
    os << e.what() << " (+" << suppressed << " more task failures)";
    throw std::runtime_error(os.str());
  } catch (...) {
    std::ostringstream os;
    os << "parallel_for task failed (+" << suppressed
       << " more task failures)";
    throw std::runtime_error(os.str());
  }
}

namespace {

std::once_flag shared_pool_once;
ThreadPool* shared_pool_instance = nullptr;

}  // namespace

ThreadPool& shared_pool() {
  // Leaked on purpose: a function-local static would join its threads
  // during static destruction, racing destructors in other translation
  // units. The pool lives until the process exits.
  std::call_once(shared_pool_once, [] {
    shared_pool_instance = new ThreadPool();
    metrics::registry().gauge("ccd.pool.threads")
        .set(static_cast<double>(shared_pool_instance->thread_count()));
  });
  return *shared_pool_instance;
}

}  // namespace ccd::util
