#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace ccd::util::metrics {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

double histogram_bucket_bound(std::size_t i) {
  // Bucket i < 27 is bounded above by 2^i; the last bucket is open-ended.
  if (i + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(1ull << i);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate inside [lo, hi) of the winning bucket, then clamp to the
    // observed extrema (tightens the open-ended first/last buckets).
    const double lo = i == 0 ? 0.0 : histogram_bucket_bound(i - 1);
    double hi = histogram_bucket_bound(i);
    if (!std::isfinite(hi)) hi = std::max(max, lo);
    const double fraction =
        std::clamp((rank - before) / static_cast<double>(buckets[i]), 0.0, 1.0);
    return std::clamp(lo + fraction * (hi - lo), min, max);
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

namespace {

std::atomic<bool> g_enabled{true};

std::size_t bucket_index(double value) {
  // Smallest i with value < 2^i; values below 1 (and negatives) land in
  // bucket 0. Branch-free enough: log2 via exponent extraction would save
  // little over this loop's typical 1-2 iterations for latencies.
  if (!(value >= 1.0)) return 0;  // also catches NaN
  std::size_t i = 0;
  while (i + 1 < kHistogramBuckets &&
         value >= histogram_bucket_bound(i)) {
    ++i;
  }
  return i;
}

void fold_min(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void fold_max(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Histogram::record(double value) {
  if (!enabled()) return;
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  fold_min(min_, value);
  fold_max(max_, value);
}

void Histogram::merge(const HistogramSnapshot& snap) {
  if (snap.count == 0) return;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (snap.buckets[i] != 0) {
      buckets_[i].fetch_add(snap.buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(snap.count, std::memory_order_relaxed);
  sum_.fetch_add(snap.sum, std::memory_order_relaxed);
  fold_min(min_, snap.min);
  fold_max(max_, snap.max);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  snap.max = snap.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

struct MetricsRegistry::Metric {
  explicit Metric(MetricKind k) : kind(k) {}
  const MetricKind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

struct MetricsRegistry::Stripe {
  mutable std::mutex mutex;
  std::unordered_map<std::string, std::unique_ptr<Metric>> metrics;
};

MetricsRegistry::MetricsRegistry()
    : stripes_(std::make_unique<Stripe[]>(kStripes)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked like util::shared_pool(): handles into the registry live in
  // objects with arbitrary destruction order (thread pools, caches), so
  // the registry must outlive static destruction.
  static MetricsRegistry* const reg = new MetricsRegistry();
  return *reg;
}

MetricsRegistry::Metric& MetricsRegistry::metric_for(std::string_view name,
                                                     MetricKind kind) {
  const std::size_t stripe_index =
      std::hash<std::string_view>{}(name) % kStripes;
  Stripe& stripe = stripes_[stripe_index];
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.metrics.find(std::string(name));
  if (it == stripe.metrics.end()) {
    it = stripe.metrics
             .emplace(std::string(name), std::make_unique<Metric>(kind))
             .first;
  } else if (it->second->kind != kind) {
    throw ConfigError("metric '" + std::string(name) + "' registered as " +
                      std::string(to_string(it->second->kind)) +
                      ", requested as " + std::string(to_string(kind)));
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return metric_for(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return metric_for(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return metric_for(name, MetricKind::kHistogram).histogram;
}

void MetricsRegistry::reset() {
  for (std::size_t s = 0; s < kStripes; ++s) {
    const std::lock_guard<std::mutex> lock(stripes_[s].mutex);
    for (auto& [name, metric] : stripes_[s].metrics) {
      metric->counter.reset();
      metric->gauge.reset();
      metric->histogram.reset();
    }
  }
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::vector<MetricSnapshot> out;
  for (std::size_t s = 0; s < kStripes; ++s) {
    const std::lock_guard<std::mutex> lock(stripes_[s].mutex);
    for (const auto& [name, metric] : stripes_[s].metrics) {
      MetricSnapshot snap;
      snap.name = name;
      snap.kind = metric->kind;
      switch (metric->kind) {
        case MetricKind::kCounter:
          snap.counter = metric->counter.value();
          break;
        case MetricKind::kGauge:
          snap.gauge = metric->gauge.value();
          break;
        case MetricKind::kHistogram:
          snap.histogram = metric->histogram.snapshot();
          break;
      }
      out.push_back(std::move(snap));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

ScopedTimer::ScopedTimer(Histogram* hist, double* out_seconds)
    : hist_(hist), out_seconds_(out_seconds), running_(true) {
  // Timing is skipped entirely when disarmed unless the caller asked for
  // the wall-clock result itself (stage timings in PipelineResult).
  if (hist_ != nullptr && !enabled()) hist_ = nullptr;
  if (hist_ == nullptr && out_seconds_ == nullptr) {
    running_ = false;
    return;
  }
  start_ = std::chrono::steady_clock::now();
}

double ScopedTimer::stop() {
  if (!running_) return 0.0;
  running_ = false;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  const double seconds = elapsed.count();
  if (hist_ != nullptr) hist_->record(seconds * 1e6);
  if (out_seconds_ != nullptr) *out_seconds_ = seconds;
  return seconds;
}

MetricsRegistry& registry() { return MetricsRegistry::instance(); }

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string prometheus_name(const std::string& name) {
  // Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*. Registry
  // names are dotted (`ccd.pool.queue_depth`) and occasionally carry
  // user-supplied segments, so every invalid character maps to '_' (not
  // just '.'/'-'), and a leading digit gets a '_' prefix — otherwise one
  // odd name makes the whole exposition unparseable.
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(valid ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string format_number(double v) {
  // Compact fixed formatting; integers render without a fraction.
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string to_json() {
  const std::vector<MetricSnapshot> snaps = registry().snapshot();
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricSnapshot& m : snaps) {
    if (!first) os << ",";
    first = false;
    os << "\n  \"" << json_escape(m.name) << "\": {\"type\": \""
       << to_string(m.kind) << "\", ";
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "\"value\": " << m.counter << "}";
        break;
      case MetricKind::kGauge:
        os << "\"value\": " << format_number(m.gauge) << "}";
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        os << "\"count\": " << h.count << ", \"sum\": " << format_number(h.sum)
           << ", \"min\": " << format_number(h.min)
           << ", \"max\": " << format_number(h.max)
           << ", \"p50\": " << format_number(h.p50())
           << ", \"p95\": " << format_number(h.p95())
           << ", \"p99\": " << format_number(h.p99()) << ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          if (h.buckets[i] == 0) continue;
          if (!first_bucket) os << ", ";
          first_bucket = false;
          const double bound = histogram_bucket_bound(i);
          os << "[";
          if (std::isfinite(bound)) {
            os << format_number(bound);
          } else {
            os << "\"+inf\"";
          }
          os << ", " << h.buckets[i] << "]";
        }
        os << "]}";
        break;
      }
    }
  }
  os << "\n}\n";
  return os.str();
}

std::string to_prometheus() {
  const std::vector<MetricSnapshot> snaps = registry().snapshot();
  std::ostringstream os;
  for (const MetricSnapshot& m : snaps) {
    const std::string name = prometheus_name(m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << name << " counter\n"
           << name << " " << m.counter << "\n";
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << " " << format_number(m.gauge) << "\n";
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          cumulative += h.buckets[i];
          if (h.buckets[i] == 0 && i + 1 < kHistogramBuckets) continue;
          const double bound = histogram_bucket_bound(i);
          os << name << "_bucket{le=\"";
          if (std::isfinite(bound)) {
            os << format_number(bound);
          } else {
            os << "+Inf";
          }
          os << "\"} " << cumulative << "\n";
        }
        os << name << "_sum " << format_number(h.sum) << "\n"
           << name << "_count " << h.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string render_summary() {
  const std::vector<MetricSnapshot> snaps = registry().snapshot();
  if (snaps.empty()) return {};
  const auto find = [&](const std::string& name) -> const MetricSnapshot* {
    for (const MetricSnapshot& m : snaps) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const auto us = [](double v) { return format_double(v / 1000.0, 3); };

  std::ostringstream os;
  // Per-stage pipeline latencies.
  bool any_stage = false;
  for (const char* stage :
       {"sanitize", "detect", "cluster", "fit", "decompose", "solve",
        "total"}) {
    const MetricSnapshot* m =
        find(std::string("ccd.pipeline.") + stage + "_us");
    if (m == nullptr || m->histogram.count == 0) continue;
    if (!any_stage) os << "pipeline stage latency (ms):\n";
    any_stage = true;
    os << "  " << stage << ": p50=" << us(m->histogram.p50())
       << " p95=" << us(m->histogram.p95()) << " max=" << us(m->histogram.max)
       << " (n=" << m->histogram.count << ")\n";
  }
  if (const MetricSnapshot* m = find("ccd.pipeline.solve_task_us");
      m != nullptr && m->histogram.count > 0) {
    os << "  solve spans (per community/spec, us): p50="
       << format_double(m->histogram.p50(), 1)
       << " p95=" << format_double(m->histogram.p95(), 1)
       << " (n=" << m->histogram.count << ")\n";
  }

  // Thread pool.
  const MetricSnapshot* task_us = find("ccd.pool.task_us");
  const MetricSnapshot* threads = find("ccd.pool.threads");
  const MetricSnapshot* depth = find("ccd.pool.queue_depth");
  if (task_us != nullptr && task_us->histogram.count > 0) {
    os << "thread pool: tasks=" << task_us->histogram.count
       << " task p50=" << format_double(task_us->histogram.p50(), 1)
       << "us p95=" << format_double(task_us->histogram.p95(), 1) << "us";
    if (depth != nullptr) {
      os << " queue_depth=" << format_number(depth->gauge);
    }
    // Utilization: busy-time integral over the pool's capacity during the
    // instrumented pipeline wall time.
    const MetricSnapshot* total = find("ccd.pipeline.total_us");
    if (threads != nullptr && threads->gauge > 0 && total != nullptr &&
        total->histogram.sum > 0) {
      // Clamped: clock granularity can push the busy integral slightly
      // past the wall-time envelope on short runs.
      const double utilization = std::min(
          1.0, task_us->histogram.sum / (threads->gauge * total->histogram.sum));
      os << " utilization=" << format_double(100.0 * utilization, 1) << "%";
    }
    os << "\n";
  }

  // Design cache.
  const MetricSnapshot* lookups = find("ccd.cache.lookups");
  const MetricSnapshot* hits = find("ccd.cache.hits");
  if (lookups != nullptr && lookups->counter > 0 && hits != nullptr) {
    const double rate = static_cast<double>(hits->counter) /
                        static_cast<double>(lookups->counter);
    os << "design cache: lookups=" << lookups->counter
       << " hits=" << hits->counter << " (hit rate "
       << format_double(100.0 * rate, 1) << "%)";
    if (const MetricSnapshot* avoided = find("ccd.cache.sweep_steps_avoided");
        avoided != nullptr) {
      os << " sweep_steps_avoided=" << avoided->counter;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ccd::util::metrics
