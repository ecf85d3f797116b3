// util::metrics: histogram bucket boundaries and quantile estimates against
// known distributions, counter/histogram exactness under concurrent
// hammering, registry fetch-or-register + reset semantics, and the
// enable/disable gate.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ccd::util::metrics {
namespace {

TEST(MetricsHistogramTest, BucketBoundsArePowersOfTwo) {
  for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_DOUBLE_EQ(histogram_bucket_bound(i), std::ldexp(1.0, static_cast<int>(i)))
        << "bucket " << i;
  }
}

TEST(MetricsHistogramTest, RecordsIntoTheRightBucket) {
  Histogram hist;
  hist.record(0.25);   // below 1 -> bucket 0
  hist.record(-3.0);   // negatives clamp into bucket 0
  hist.record(1.0);    // [1, 2) -> bucket 1
  hist.record(1.99);   // still bucket 1
  hist.record(500.0);  // [256, 512) -> bucket 9
  hist.record(1.0e9);  // beyond 2^26 -> overflow bucket
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[9], 1u);
  EXPECT_EQ(snap.buckets[kHistogramBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(snap.min, -3.0);
  EXPECT_DOUBLE_EQ(snap.max, 1.0e9);
}

TEST(MetricsHistogramTest, ConstantDistributionCollapsesAllQuantiles) {
  Histogram hist;
  for (int i = 0; i < 1000; ++i) hist.record(42.0);
  const HistogramSnapshot snap = hist.snapshot();
  // Every quantile of a point mass is the point (interpolation is clamped
  // to the observed extrema).
  EXPECT_DOUBLE_EQ(snap.p50(), 42.0);
  EXPECT_DOUBLE_EQ(snap.p95(), 42.0);
  EXPECT_DOUBLE_EQ(snap.p99(), 42.0);
  EXPECT_DOUBLE_EQ(snap.sum / static_cast<double>(snap.count), 42.0);
}

TEST(MetricsHistogramTest, UniformDistributionQuantilesWithinBucketError) {
  Histogram hist;
  for (int v = 1; v <= 1024; ++v) hist.record(static_cast<double>(v));
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1024u);
  EXPECT_DOUBLE_EQ(snap.sum, 1024.0 * 1025.0 / 2.0);
  // Power-of-two buckets bound the quantile error by one bucket width:
  // the true quantile q lands in bucket [b, 2b), so the estimate can be
  // off by at most a factor of 2 in either direction.
  const double p50 = snap.p50();
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p95 = snap.p95();
  EXPECT_GE(p95, 512.0);
  EXPECT_LE(p95, 1024.0);
  // Quantiles are monotone and clamped to the observed range.
  EXPECT_LE(snap.quantile(0.0), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, snap.quantile(1.0));
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1024.0);
}

TEST(MetricsHistogramTest, BimodalDistributionSeparatesTails) {
  Histogram hist;
  for (int i = 0; i < 95; ++i) hist.record(2.5);     // bucket [2, 4)
  for (int i = 0; i < 5; ++i) hist.record(5000.0);   // bucket [4096, 8192)
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_LT(snap.p50(), 4.0);
  EXPECT_LT(snap.quantile(0.90), 4.0);
  EXPECT_GT(snap.p99(), 4096.0);
  EXPECT_LE(snap.p99(), 5000.0);  // clamped to the observed max
}

TEST(MetricsHistogramTest, SnapshotsMergeBucketwise) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 10; ++i) a.record(3.0);
  for (int i = 0; i < 20; ++i) b.record(100.0);
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 30u);
  EXPECT_DOUBLE_EQ(merged.sum, 10 * 3.0 + 20 * 100.0);
  EXPECT_DOUBLE_EQ(merged.min, 3.0);
  EXPECT_DOUBLE_EQ(merged.max, 100.0);
  EXPECT_EQ(merged.buckets[2], 10u);   // [2, 4)
  EXPECT_EQ(merged.buckets[7], 20u);   // [64, 128)

  // Merging an empty snapshot is the identity.
  const HistogramSnapshot before = merged;
  merged.merge(HistogramSnapshot{});
  EXPECT_EQ(merged.count, before.count);
  EXPECT_DOUBLE_EQ(merged.min, before.min);
  EXPECT_DOUBLE_EQ(merged.max, before.max);

  // Histogram::merge folds a snapshot into a live histogram.
  Histogram target;
  target.record(1.5);
  target.merge(b.snapshot());
  EXPECT_EQ(target.snapshot().count, 21u);
}

TEST(MetricsConcurrencyTest, CountersAndHistogramsAreExactUnderContention) {
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 2000;
  Counter counter;
  Histogram hist;
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      counter.add(1);
      hist.record(static_cast<double>(task % 8 + 1));
    }
  });
  EXPECT_EQ(counter.value(), kTasks * kPerTask);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : snap.buckets) bucketed += b;
  EXPECT_EQ(bucketed, snap.count);
}

TEST(MetricsRegistryTest, FetchOrRegisterReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("ccd.test.counter");
  Counter& c2 = reg.counter("ccd.test.counter");
  EXPECT_EQ(&c1, &c2);
  c1.add(7);
  EXPECT_EQ(c2.value(), 7u);

  Gauge& g = reg.gauge("ccd.test.gauge");
  g.set(1.25);
  Histogram& h = reg.histogram("ccd.test.hist_us");
  h.record(10.0);

  const auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  // snapshot() is sorted by name.
  EXPECT_EQ(snaps[0].name, "ccd.test.counter");
  EXPECT_EQ(snaps[1].name, "ccd.test.gauge");
  EXPECT_EQ(snaps[2].name, "ccd.test.hist_us");
  EXPECT_EQ(snaps[0].counter, 7u);
  EXPECT_DOUBLE_EQ(snaps[1].gauge, 1.25);
  EXPECT_EQ(snaps[2].histogram.count, 1u);
}

TEST(MetricsRegistryTest, KindMismatchThrowsConfigError) {
  MetricsRegistry reg;
  reg.counter("ccd.test.name");
  EXPECT_THROW(reg.gauge("ccd.test.name"), ConfigError);
  EXPECT_THROW(reg.histogram("ccd.test.name"), ConfigError);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ccd.test.counter");
  Gauge& g = reg.gauge("ccd.test.gauge");
  Histogram& h = reg.histogram("ccd.test.hist_us");
  c.add(3);
  g.set(9.0);
  h.record(100.0);

  reg.reset();

  // Handles taken before the reset stay valid and observe the zeroing.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(reg.snapshot().size(), 3u);

  // And keep working afterwards.
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
  h.record(2.0);
  EXPECT_DOUBLE_EQ(h.snapshot().min, 2.0);
}

TEST(MetricsRegistryTest, DisarmedMutationsAreDropped) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ccd.test.counter");
  Histogram& h = reg.histogram("ccd.test.hist_us");
  set_enabled(false);
  c.add(5);
  h.record(1.0);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(MetricsScopedTimerTest, RecordsMicrosecondsAndSecondsOnce) {
  Histogram hist;
  double seconds = -1.0;
  {
    ScopedTimer timer(&hist, &seconds);
    const double first = timer.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_DOUBLE_EQ(timer.stop(), 0.0);  // idempotent
  }
  EXPECT_EQ(hist.snapshot().count, 1u);
  EXPECT_GE(seconds, 0.0);
  // Microseconds recorded = seconds * 1e6 (same clock read).
  EXPECT_NEAR(hist.snapshot().sum, seconds * 1e6, 1e-6 * 1e6 + 1e-9);
}

TEST(MetricsScopedTimerTest, DisarmedTimerStillReportsSeconds) {
  // Disarming drops the histogram sample but keeps the caller's own
  // reading: the pipeline's StageTimings are filled either way.
  Histogram hist;
  double seconds = -1.0;
  set_enabled(false);
  {
    ScopedTimer timer(&hist, &seconds);
  }
  set_enabled(true);
  EXPECT_EQ(hist.snapshot().count, 0u);
  EXPECT_GE(seconds, 0.0);
}

TEST(MetricsExportTest, ExportersProduceOutputInEitherBuild) {
  // Smoke coverage for the shared export surface; exact content depends on
  // what the process has recorded so far, so only shape is asserted.
  registry().counter("ccd.test.export").add(1);
  const std::string json = to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  const std::string prom = to_prometheus();
  EXPECT_NE(json.find("ccd.test.export"), std::string::npos);
  EXPECT_NE(prom.find("ccd_test_export"), std::string::npos);
}

TEST(MetricsExportTest, PrometheusNamesAreAlwaysValid) {
  // Registry names are free-form; the exposition format is not. Register
  // names exercising every escape case and round-trip them through the
  // exporter: every metric-name token in the output must match
  // [a-zA-Z_:][a-zA-Z0-9_:]*.
  registry().counter("ccd.test.escape/slash").add(1);
  registry().counter("ccd.test.escape space").add(1);
  registry().counter("ccd.test.escape\"quote").add(1);
  registry().counter("ccd.test.escape{brace}").add(1);
  registry().counter("9leading.digit").add(1);
  registry().gauge("ccd.test.escape-dash.gauge").set(1.0);
  registry().histogram("ccd.test.escape+plus_us").record(3.0);

  const std::string prom = to_prometheus();

  const auto valid_head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  const auto valid_tail = [&](char c) {
    return valid_head(c) || (c >= '0' && c <= '9');
  };

  // Walk every line; the name token is the second word of "# TYPE <name>
  // <kind>" lines and the first word of sample lines.
  std::size_t names_checked = 0;
  std::size_t start = 0;
  while (start < prom.size()) {
    std::size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    std::string line = prom.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) line = line.substr(7);
    const std::string name = line.substr(0, line.find_first_of(" {"));
    ASSERT_FALSE(name.empty());
    EXPECT_TRUE(valid_head(name[0])) << "bad name start: " << name;
    for (const char c : name) {
      EXPECT_TRUE(valid_tail(c)) << "bad char in name: " << name;
    }
    ++names_checked;
  }
  EXPECT_GT(names_checked, 0u);

  // The escapes land where expected (and distinct inputs still export).
  EXPECT_NE(prom.find("ccd_test_escape_slash"), std::string::npos);
  EXPECT_NE(prom.find("ccd_test_escape_space"), std::string::npos);
  EXPECT_NE(prom.find("ccd_test_escape_brace_"), std::string::npos);
  EXPECT_NE(prom.find("_9leading_digit"), std::string::npos);
  EXPECT_NE(prom.find("ccd_test_escape_dash_gauge"), std::string::npos);
  EXPECT_NE(prom.find("ccd_test_escape_plus_us"), std::string::npos);
}

}  // namespace
}  // namespace ccd::util::metrics
