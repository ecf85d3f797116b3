#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace ccd::util {

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

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

double mean(const std::vector<double>& values) {
  Accumulator acc;
  for (const double v : values) acc.add(v);
  return acc.mean();
}

double stddev(const std::vector<double>& values) {
  Accumulator acc;
  for (const double v : values) acc.add(v);
  return acc.stddev();
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
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

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  CCD_CHECK_MSG(hi > lo, "Histogram requires hi > lo");
  CCD_CHECK_MSG(bins > 0, "Histogram requires at least one bin");
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  long long bin = static_cast<long long>(std::floor((x - lo_) / width));
  bin = std::clamp<long long>(bin, 0, static_cast<long long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t bin) const {
  CCD_CHECK(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  return bin_lo(bin + 1);
}

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (const std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    char label[64];
    std::snprintf(label, sizeof(label), "[%9.3f, %9.3f) %8zu ",
                  bin_lo(b), bin_hi(b), counts_[b]);
    os << label;
    const std::size_t bar = counts_[b] * width / peak;
    for (std::size_t i = 0; i < bar; ++i) os << '#';
    os << '\n';
  }
  return os.str();
}

}  // namespace ccd::util
