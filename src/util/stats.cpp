#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ccd::util {

double Accumulator::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const { return count_ == 0 ? 0.0 : min_; }

double Accumulator::max() const { return count_ == 0 ? 0.0 : max_; }

double percentile(std::vector<double> values, double p) {
  CCD_CHECK_MSG(!values.empty(), "percentile of empty sample");
  CCD_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Selection instead of a full sort: nth_element puts the lo-th order
  // statistic at `nth` and only larger-or-equal values after it, so the
  // hi-th (lo + 1) is the smallest of those.
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double at_lo = *nth;
  const double at_hi =
      hi == lo ? at_lo : *std::min_element(nth + 1, values.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  Accumulator acc;
  for (const double v : values) acc.add(v);
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.p5 = percentile(values, 5.0);
  s.median = percentile(values, 50.0);
  s.p95 = percentile(values, 95.0);
  return s;
}

}  // namespace ccd::util
