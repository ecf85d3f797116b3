// Descriptive statistics: streaming accumulator, percentiles, summaries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace ccd::util {

/// Streaming mean/variance/min/max (Welford's algorithm).
class Accumulator {
 public:
  /// Inline: the trace statistics call this once per review.
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear-interpolation percentile (p in [0, 100]) of a sample: the value
/// of sorting it and interpolating between ranks floor(r) and floor(r) + 1,
/// r = p/100 * (n - 1). Selects those two order statistics in linear time
/// instead of sorting.
double percentile(std::vector<double> values, double p);

/// Five-number-plus summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p5 = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

Summary summarize(const std::vector<double>& values);

}  // namespace ccd::util
