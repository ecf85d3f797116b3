// Descriptive statistics: streaming accumulator, percentiles, histograms.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
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
  void merge(const Accumulator& other);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

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

double mean(const std::vector<double>& values);
double stddev(const std::vector<double>& values);
double median(std::vector<double> values);

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

/// Fixed-width histogram over [lo, hi); values outside clamp to end bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t bin) const;
  std::size_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

  /// Multi-line ASCII rendering (for example programs).
  std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace ccd::util
