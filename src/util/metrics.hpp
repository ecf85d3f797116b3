// Process-wide observability: counters, gauges, and fixed-bucket latency
// histograms behind a lock-striped registry, plus RAII timing helpers and
// text/JSON/Prometheus export.
//
// Design constraints (the pipeline's hot paths run through here):
//  * Zero allocation on the hot path. Registration (`registry().counter(..)`)
//    hashes a name and takes a stripe lock once; the returned handle is a
//    stable reference whose mutation methods are lock-free atomic ops.
//    Instrument hot loops through cached handles, never by name.
//  * Disarmed cost is a branch. Every mutation first checks the global
//    `enabled()` flag (one relaxed atomic load); `set_enabled(false)`
//    reduces the entire subsystem to that branch (about 1 ns).
//  * Histograms are fixed-bucket (powers of two, unit-agnostic — the
//    conventional unit for latency metrics here is microseconds), so
//    snapshots merge across threads and runs by bucket-wise addition, and
//    p50/p95/p99 are estimated by linear interpolation inside the bucket
//    that holds the rank (error bounded by the bucket width).
//
// Naming convention: `ccd.<layer>.<name>`, e.g. `ccd.pipeline.solve_us`,
// `ccd.pool.queue_depth`, `ccd.cache.hits`. Latency histograms end in the
// unit suffix `_us`. The registry is process-wide; `reset()` zeroes every
// value but keeps registrations (and thus outstanding handles) valid —
// call it between pipeline runs for per-run readings.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ccd::util::metrics {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// Upper bucket bounds shared by every histogram: powers of two from 1 to
/// 2^26, plus a final overflow bucket. Bucket i holds values < kBounds[i]
/// (bucket 0 also absorbs everything below 1, including negatives).
inline constexpr std::size_t kHistogramBuckets = 28;

/// Bound of bucket i for i < kHistogramBuckets - 1 (the last bucket is
/// unbounded).
double histogram_bucket_bound(std::size_t i);

/// Mergeable point-in-time view of a histogram. Plain data: safe to copy
/// into results, diff across runs, and merge across threads.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< observed extrema (0 when count == 0)
  double max = 0.0;

  /// Quantile estimate for q in [0, 1]: linear interpolation inside the
  /// bucket holding the rank, clamped to the observed [min, max].
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  void merge(const HistogramSnapshot& other);
};

/// True when instrumentation is armed (the default). The flag is global on
/// purpose: it makes "disarm everything" one store, and every mutation
/// exactly one extra relaxed load when disarmed.
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  // Padded to a cache line so independent hot counters don't false-share.
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (bounds above). Thread-safe: record() is a
/// handful of relaxed atomic ops, no locks, no allocation.
class Histogram {
 public:
  void record(double value);
  /// Fold a snapshot in (bucket-wise). Used to roll per-run local
  /// histograms up into the process-wide registry. Ignores enabled():
  /// the per-sample gate already ran when the snapshot was recorded.
  void merge(const HistogramSnapshot& snap);
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Extrema start at +/-inf and are folded in with CAS loops; snapshot()
  // maps the empty-histogram infinities back to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One registered metric, exported by name.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  HistogramSnapshot histogram;
};

/// Lock-striped name -> metric table. Handles returned by counter() /
/// gauge() / histogram() stay valid for the registry's lifetime (the
/// process, for the global instance()): values are zeroed by reset(), but
/// registrations are never removed.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& instance();

  /// Fetch-or-register. Throws ccd::ConfigError if `name` is already
  /// registered with a different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every value; registrations (and outstanding handles) survive.
  void reset();
  /// Point-in-time view of every metric, sorted by name.
  std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Metric;
  struct Stripe;
  Metric& metric_for(std::string_view name, MetricKind kind);

  static constexpr std::size_t kStripes = 16;
  std::unique_ptr<Stripe[]> stripes_;
};

/// RAII wall-clock span. Arms itself only when metrics are enabled at
/// construction; on stop (or destruction) records the elapsed time in
/// microseconds into `hist` (when non-null) and, independently of the
/// enabled flag, writes elapsed seconds to `out_seconds` (when non-null) —
/// pipeline results always carry their stage timings.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist, double* out_seconds = nullptr);
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record once; further calls are no-ops. Returns elapsed seconds (0
  /// after the first call).
  double stop();

 private:
  Histogram* hist_;
  double* out_seconds_;
  std::chrono::steady_clock::time_point start_;
  bool running_;
};

/// Shorthand for MetricsRegistry::instance().
MetricsRegistry& registry();

/// JSON object keyed by metric name, sorted; histograms carry count, sum,
/// extrema, p50/p95/p99, and their non-empty buckets.
std::string to_json();

/// Prometheus text exposition format ('.' in names becomes '_';
/// histograms emit cumulative _bucket{le=...}, _sum, _count).
std::string to_prometheus();

/// Human-readable digest of the registry for CLI output: per-stage
/// pipeline latencies (p50/p95), thread-pool load and utilization, and
/// design-cache hit rate. Empty string when nothing has been recorded.
std::string render_summary();

}  // namespace ccd::util::metrics
