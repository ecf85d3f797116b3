#include "util/cancellation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>

#include "util/thread_pool.hpp"

namespace ccd::util {
namespace {

TEST(DeadlineTest, DefaultIsInactive) {
  const Deadline d;
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, ZeroBudgetIsAlreadyExpired) {
  const Deadline d = Deadline::after(0.0);
  EXPECT_TRUE(d.expired());
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired) {
  const Deadline d = Deadline::after(3600.0);
  EXPECT_FALSE(d.expired());
}

TEST(CancellationTokenTest, FreshTokenIsNotCancelled) {
  const CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.poll());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(CancellationTokenTest, RequestCancelLatchesAndKeepsFirstReason) {
  const CancellationToken token;
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  // Idempotent; a later deadline reason does not overwrite the first.
  token.request_cancel(CancelReason::kDeadline);
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
}

TEST(CancellationTokenTest, PollLatchesExpiredDeadline) {
  CancellationToken token;
  token.set_deadline(Deadline::after(0.0));
  // cancelled() never reads the clock, so the flag is still clear...
  EXPECT_FALSE(token.cancelled());
  // ...until a poll() notices the expiry and latches it.
  EXPECT_TRUE(token.poll());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancellationTokenTest, GenerousDeadlineDoesNotFire) {
  CancellationToken token;
  token.set_deadline(Deadline::after(3600.0));
  EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTokenTest, CopiesShareState) {
  const CancellationToken a;
  const CancellationToken b = a;  // NOLINT(performance-unnecessary-copy...)
  a.request_cancel();
  EXPECT_TRUE(b.cancelled());
}

TEST(CancellationTokenTest, VisibleAcrossThreads) {
  const CancellationToken token;
  std::thread t([&token] { token.request_cancel(); });
  t.join();
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, ParallelForStopsEarlyWhenPreCancelled) {
  ThreadPool pool(4);
  const CancellationToken token;
  token.request_cancel();
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(
      10000, [&ran](std::size_t) { ran.fetch_add(1); }, &token);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(CancellationTokenTest, ParallelForStopsMidRun) {
  ThreadPool pool(4);
  const CancellationToken token;
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(
      100000,
      [&ran, &token](std::size_t i) {
        if (i == 0) token.request_cancel();
        ran.fetch_add(1);
      },
      &token);
  // Some indices run before the flag propagates, but nowhere near all.
  EXPECT_LT(ran.load(), 100000u);
}

TEST(CancellationTokenTest, ParallelForRunsToCompletionWithoutToken) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(1000, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1000u);
}

}  // namespace
}  // namespace ccd::util
