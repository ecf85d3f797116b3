#include "util/retry.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace ccd::util {
namespace {

RetryPolicy fast_policy(std::size_t attempts = 3) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.sleep = false;  // spin through attempts instantly
  return p;
}

TEST(RetryPolicyTest, Validation) {
  EXPECT_NO_THROW(RetryPolicy{}.validate());
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.multiplier = 0.5;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.jitter = 1.5;
  EXPECT_THROW(p.validate(), Error);
}

TEST(RetryTest, FirstAttemptSuccessCallsOnce) {
  std::size_t calls = 0;
  const int got = with_retry("test.once", fast_policy(), [&](std::size_t) {
    ++calls;
    return 42;
  });
  EXPECT_EQ(got, 42);
  EXPECT_EQ(calls, 1u);
}

TEST(RetryTest, RecoversAfterTransientFailures) {
  std::vector<std::size_t> seen;
  const std::string got =
      with_retry("test.flaky", fast_policy(3), [&](std::size_t attempt) {
        seen.push_back(attempt);
        if (attempt < 2) throw DataError("transient");
        return std::string("ok");
      });
  EXPECT_EQ(got, "ok");
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RetryTest, ExhaustedAttemptsRethrowOriginalError) {
  std::size_t calls = 0;
  try {
    with_retry("test.dead", fast_policy(3), [&](std::size_t) -> int {
      ++calls;
      throw DataError("disk on fire");
    });
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kData);
    EXPECT_NE(std::string(e.what()).find("disk on fire"), std::string::npos);
  }
  EXPECT_EQ(calls, 3u);
}

TEST(RetryTest, NonCcdExceptionsPropagateImmediately) {
  std::size_t calls = 0;
  EXPECT_THROW(with_retry("test.bug", fast_policy(5),
                          [&](std::size_t) -> int {
                            ++calls;
                            throw std::logic_error("a bug, not flaky I/O");
                          }),
               std::logic_error);
  EXPECT_EQ(calls, 1u);
}

TEST(RetryTest, SingleAttemptPolicyDisablesRetrying) {
  std::size_t calls = 0;
  EXPECT_THROW(with_retry("test.single", fast_policy(1),
                          [&](std::size_t) -> int {
                            ++calls;
                            throw DataError("nope");
                          }),
               DataError);
  EXPECT_EQ(calls, 1u);
}

TEST(RetryTest, VoidCallablesAreSupported) {
  std::size_t calls = 0;
  with_retry("test.void", fast_policy(3), [&](std::size_t attempt) {
    ++calls;
    if (attempt == 0) throw DataError("transient");
  });
  EXPECT_EQ(calls, 2u);
}

TEST(RetryTest, BackoffScheduleIsDeterministic) {
  RetryPolicy p = fast_policy(4);
  const double b1 = detail::backoff_before("test.det", p, 1);
  const double b2 = detail::backoff_before("test.det", p, 2);
  EXPECT_GT(b1, 0.0);
  EXPECT_GT(b2, b1);  // exponential growth dominates the ±20% jitter
  // Same (op, policy) -> bitwise-identical schedule.
  EXPECT_EQ(detail::backoff_before("test.det", p, 1), b1);
  EXPECT_EQ(detail::backoff_before("test.det", p, 2), b2);
  // A different operation name draws a different jitter stream.
  const double other = detail::backoff_before("test.det2", p, 1);
  EXPECT_NE(other, b1);
}

TEST(RetryTest, CountsAttemptsInRegistry) {
  namespace metrics = util::metrics;
  metrics::set_enabled(true);
  const std::uint64_t attempts0 =
      metrics::registry().counter("ccd.io.attempts").value();
  const std::uint64_t retries0 =
      metrics::registry().counter("ccd.io.retries").value();
  const std::uint64_t success0 =
      metrics::registry().counter("ccd.io.successes").value();
  with_retry("test.metrics", fast_policy(3), [](std::size_t attempt) {
    if (attempt == 0) throw DataError("transient");
  });
  EXPECT_EQ(metrics::registry().counter("ccd.io.attempts").value(),
            attempts0 + 2);
  EXPECT_EQ(metrics::registry().counter("ccd.io.retries").value(),
            retries0 + 1);
  EXPECT_EQ(metrics::registry().counter("ccd.io.successes").value(),
            success0 + 1);
}

}  // namespace
}  // namespace ccd::util
