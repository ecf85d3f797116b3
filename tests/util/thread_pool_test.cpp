#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace ccd::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(8);
  const std::size_t n = 5000;
  std::vector<double> out(n, 0.0);
  pool.parallel_for(n, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n) * (n - 1));
}

TEST(ThreadPoolTest, ParallelForZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("task 37");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCountsSuppressedFailures) {
  // Four chunks of one index each (n == threads), synchronized on a latch
  // so every task is already past the early-cancel check before the first
  // throw — all four must fail, deterministically.
  ThreadPool pool(4);
  std::latch sync(4);
  try {
    pool.parallel_for(4, [&](std::size_t i) {
      sync.arrive_and_wait();
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(+3 more task failures)"),
              std::string::npos)
        << e.what();
  }
}

TEST(ThreadPoolTest, SuppressedFailuresPreserveCcdErrorType) {
  ThreadPool pool(4);
  std::latch sync(4);
  try {
    pool.parallel_for(4, [&](std::size_t i) {
      sync.arrive_and_wait();
      throw MathError("chunk " + std::to_string(i));
    });
    FAIL() << "should have thrown";
  } catch (const MathError& e) {
    EXPECT_EQ(e.context().suppressed_failures, 3u);
    EXPECT_NE(std::string(e.what()).find("(+3 more task failures)"),
              std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    FAIL() << "dynamic type was lost: " << e.what();
  }
}

TEST(ThreadPoolTest, SingleFailureHasNoSuppressedNote) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 37) throw MathError("task 37");
    });
    FAIL() << "should have thrown";
  } catch (const MathError& e) {
    EXPECT_EQ(e.context().suppressed_failures, 0u);
    EXPECT_EQ(std::string(e.what()).find("more task failures"),
              std::string::npos)
        << e.what();
  }
}

// parallel_for queues one runner per pool thread, at most one per chunk,
// and each runner claims chunks until none is left, so `ccd.pool.tasks`
// counts runners, not chunks. A runner's metrics land before it reports to
// the caller, so the count is exact once parallel_for returns. A runner
// stops at its first failing index and the others stop at their next
// index, so a call reports at most runners - 1 suppressed failures.
TEST(ThreadPoolTest, ParallelForRunsOneTaskPerPoolThread) {
  const struct {
    std::size_t threads;
    std::size_t n;
    std::size_t runners;
  } cases[] = {{4, 200, 4}, {1, 200, 1}, {4, 3, 3}, {4, 1, 1}, {8, 5, 5}};
  for (const auto& tc : cases) {
    const std::string where = std::to_string(tc.threads) + " threads, n " +
                              std::to_string(tc.n);
    ThreadPool pool(tc.threads);
    std::vector<std::atomic<int>> hits(tc.n);
    const metrics::Counter& tasks =
        metrics::registry().counter("ccd.pool.tasks");
    const std::uint64_t before = tasks.value();
    pool.parallel_for(tc.n, [&](std::size_t i) { hits[i].fetch_add(1); });
    EXPECT_EQ(tasks.value() - before, tc.runners) << where;
    for (std::size_t i = 0; i < tc.n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << where << ", index " << i;
    }
  }

  // Index 0 throws, while every other index a runner starts waits for the
  // throw and then lingers, so the failure is recorded before it returns.
  // Each other runner then stops after the index it is in, or the one it
  // started while the exception was in flight: at most two indices each.
  {
    ThreadPool pool(4);
    std::atomic<bool> thrown{false};
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(pool.parallel_for(200, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 0) {
        thrown.store(true);
        throw MathError("index 0");
      }
      while (!thrown.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }), MathError);
    EXPECT_GE(ran.load(), 1u);
    EXPECT_LE(ran.load(), 1u + 3u * 2u);
  }

  // Every index throws: each runner fails once, at its first index.
  for (const auto& [threads, n] :
       {std::pair<std::size_t, std::size_t>{4, 200}, {1, 200}, {4, 2}}) {
    const std::size_t runners = std::min(threads, n);
    ThreadPool pool(threads);
    try {
      pool.parallel_for(n, [&](std::size_t i) {
        throw MathError("index " + std::to_string(i));
      });
      FAIL() << "should have thrown";
    } catch (const MathError& e) {
      EXPECT_LE(e.context().suppressed_failures, runners - 1)
          << threads << " threads, n " << n << ": " << e.what();
    }
  }
}

TEST(ThreadPoolTest, ParallelForSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ManySmallSubmissions) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  int total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(total, 199 * 200 / 2);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // Regression: an outer task calling parallel_for on its own pool used to
  // deadlock — the outer chunks held every worker slot while blocking on
  // inner futures that could never be scheduled.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(2,
                        [&](std::size_t) {
                          pool.parallel_for(4, [&](std::size_t i) {
                            if (i == 3) throw std::runtime_error("inner");
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, OnWorkerThreadDetection) {
  ThreadPool pool(2);
  std::atomic<bool> inside{false};
  pool.parallel_for(1, [&](std::size_t) {
    inside.store(pool.on_worker_thread());
  });
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPoolTest, WorkerOfAnotherPoolIsNotNested) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<bool> on_inner{true};
  outer.parallel_for(1, [&](std::size_t) {
    on_inner.store(inner.on_worker_thread());
  });
  EXPECT_FALSE(on_inner.load());
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndDegradesToInline) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(pool.thread_count(), 0u);
  // parallel_for still makes progress (inline), submit refuses.
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
  EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
}

double gauge_value(const std::string& name) {
  for (const metrics::MetricSnapshot& m : metrics::registry().snapshot()) {
    if (m.name == name) return m.gauge;
  }
  return -1.0;
}

// submit() and the popping worker both store ccd.pool.queue_depth under
// the queue lock, so the gauge always holds the depth after the latest
// queue change: the backlog while the only worker is blocked, zero once
// every queued task has been taken.
TEST(ThreadPoolTest, QueueDepthGaugeTracksBacklog) {
  ThreadPool pool(1);
  std::latch started(1);
  std::latch release(1);
  std::future<void> blocker = pool.submit([&] {
    started.count_down();
    release.wait();
  });
  started.wait();  // the worker has taken the blocker: the queue is empty
  std::vector<std::future<void>> queued;
  for (int i = 1; i <= 5; ++i) {
    queued.push_back(pool.submit([] {}));
    EXPECT_EQ(gauge_value("ccd.pool.queue_depth"), static_cast<double>(i));
  }
  release.count_down();
  blocker.get();
  for (std::future<void>& f : queued) f.get();
  EXPECT_EQ(gauge_value("ccd.pool.queue_depth"), 0.0);
}

TEST(SharedPoolTest, IsAProcessWideSingleton) {
  EXPECT_EQ(&shared_pool(), &shared_pool());
  EXPECT_GE(shared_pool().thread_count(), 1u);
}

TEST(SharedPoolTest, ParallelForCoversEveryIndex) {
  std::vector<std::atomic<int>> hits(256);
  shared_pool().parallel_for(hits.size(),
                             [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SharedPoolTest, NestedParallelFor) {
  std::atomic<int> counter{0};
  shared_pool().parallel_for(3, [&](std::size_t) {
    shared_pool().parallel_for(5,
                               [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 15);
}

TEST(ThreadPoolContentionTest, SessionStyleBurstsLoseNoTasksAndSettle) {
  // The serve engine's workload shape: N client threads each firing many
  // small parallel_for bursts at one shared pool, some of them cancelled
  // mid-flight. Invariants: (a) an uncancelled burst covers every index
  // exactly once, (b) a cancelled burst never runs an index twice, and
  // (c) once everything joins, the pool's queue-depth and busy-worker
  // gauges are back to zero — nothing was lost or leaked in the queue.
  ThreadPool pool(4);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kBurstsPerClient = 40;
  constexpr std::size_t kBurstSize = 64;

  std::atomic<std::uint64_t> clean_hits{0};
  std::atomic<std::uint64_t> expected_clean{0};
  std::atomic<bool> overcounted{false};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t b = 0; b < kBurstsPerClient; ++b) {
        // Every third burst per client runs under a token that cancels
        // partway through.
        const bool cancelled_burst = (b % 3) == 2;
        std::vector<std::atomic<std::uint8_t>> hits(kBurstSize);
        if (cancelled_burst) {
          CancellationToken token;
          std::atomic<std::size_t> started{0};
          pool.parallel_for(
              kBurstSize,
              [&](std::size_t i) {
                if (started.fetch_add(1) == kBurstSize / 4) {
                  token.request_cancel();
                }
                if (hits[i].fetch_add(1) != 0) overcounted.store(true);
              },
              &token);
          // Cancellation is silent; skipped indices simply never ran.
          for (auto& h : hits) {
            if (h.load() > 1) overcounted.store(true);
          }
        } else {
          pool.parallel_for(kBurstSize, [&](std::size_t i) {
            if (hits[i].fetch_add(1) != 0) overcounted.store(true);
            clean_hits.fetch_add(1);
          });
          expected_clean.fetch_add(kBurstSize);
          for (std::size_t i = 0; i < kBurstSize; ++i) {
            if (hits[i].load() != 1) overcounted.store(true);
          }
        }
        // Interleave with unrelated small work, as concurrent sessions do.
        (void)c;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_FALSE(overcounted.load());
  EXPECT_EQ(clean_hits.load(), expected_clean.load());

  // All bursts joined: the gauges must settle back to zero. A runner
  // records its gauges before it reports back to parallel_for, so they
  // have settled once the bursts return; shutdown() joins the workers
  // too, so the read races with nothing.
  pool.shutdown();
  using metrics::MetricSnapshot;
  double queue_depth = -1.0;
  double busy = -1.0;
  for (const MetricSnapshot& m : metrics::registry().snapshot()) {
    if (m.name == "ccd.pool.queue_depth") queue_depth = m.gauge;
    if (m.name == "ccd.pool.busy_workers") busy = m.gauge;
  }
  EXPECT_EQ(queue_depth, 0.0);
  EXPECT_EQ(busy, 0.0);
}

}  // namespace
}  // namespace ccd::util
