#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
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

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      // Under the lock, like submit(): a store made after unlocking could
      // land after a newer one and leave a stale depth behind.
      queue_depth_->set(static_cast<double>(queue_.size()));
    }
    busy_workers_->add(1.0);
    {
      metrics::ScopedTimer timer(task_us_);
      task();  // packaged_task captures exceptions into its future
    }
    busy_workers_->add(-1.0);
    tasks_completed_->add(1);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const CancellationToken* cancel) {
  if (n == 0) return;
  if (cancel != nullptr && cancel->poll()) return;
  // Nested use: an outer task calling parallel_for on its own pool would
  // block on futures that can only run on the slots the outer tasks hold.
  // Run inline instead (also the degraded mode after shutdown()).
  if (on_worker_thread() || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->poll()) return;
      fn(i);
    }
    return;
  }
  // Chunk so that each thread gets a handful of blocks; per-index dispatch
  // would drown small tasks in queue overhead.
  const std::size_t chunks =
      std::min<std::size_t>(n, thread_count() * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  std::atomic<bool> failed{false};
  std::atomic<std::size_t> failure_count{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    if (begin >= end) break;
    futures.push_back(submit([&, begin, end] {
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
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (!first_error) return;

  // Rethrow the first failure; when other chunks also threw, those
  // exceptions would otherwise vanish silently, so their count is appended
  // to the rethrown error ("(+K more task failures)").
  const std::size_t suppressed = failure_count.load() - 1;
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
  // units. shutdown_shared_pool() provides the explicit teardown.
  std::call_once(shared_pool_once, [] {
    shared_pool_instance = new ThreadPool();
    metrics::registry().gauge("ccd.pool.threads")
        .set(static_cast<double>(shared_pool_instance->thread_count()));
  });
  return *shared_pool_instance;
}

void shutdown_shared_pool() { shared_pool().shutdown(); }

void parallel_for_default(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  shared_pool().parallel_for(n, fn);
}

}  // namespace ccd::util
