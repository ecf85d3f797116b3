#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ccd::util {
namespace {

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(AccumulatorTest, KnownSmallSample) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(AccumulatorTest, SingleValueHasZeroVariance) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
}

TEST(AccumulatorTest, StddevIsRootOfSampleVariance) {
  Accumulator acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.variance(), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), std::sqrt(5.0 / 3.0));
}

TEST(AccumulatorTest, EmptyMinMaxAreZero) {
  const Accumulator acc;
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.max(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

// Welford's update keeps the variance of values with a large common offset,
// where the textbook sum-of-squares formula loses every significant digit.
TEST(AccumulatorTest, LargeOffsetKeepsVariance) {
  Accumulator acc;
  for (const double x : {4.0, 7.0, 13.0, 16.0}) acc.add(1e9 + x);
  EXPECT_DOUBLE_EQ(acc.mean(), 1e9 + 10.0);
  EXPECT_NEAR(acc.variance(), 30.0, 1e-6);
  EXPECT_DOUBLE_EQ(acc.min(), 1e9 + 4.0);
  EXPECT_DOUBLE_EQ(acc.max(), 1e9 + 16.0);
}

TEST(PercentileTest, MedianAndExtremes) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 5.0), 42.0);
}

TEST(PercentileTest, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, -1.0), Error);
  EXPECT_THROW(percentile({1.0}, 101.0), Error);
}

/// The percentile as a full sort reads it: the reference the selection
/// must reproduce.
double sorted_percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// Seeded samples of every size 1..1,000, drawn from few distinct values
// (many duplicates) or from a continuous range, at a grid of p from 0 to
// 100: bit for bit the sort-based value. Where a sample holds both signed
// zeros, which of them a sort or a selection puts at a rank is unspecified,
// so only the values must be equal there.
TEST(PercentileTest, SelectionEqualsSortReferenceBitwise) {
  const double grid[] = {0.0,  0.1,  1.0,  5.0,  10.0, 25.0, 100.0 / 3.0,
                         50.0, 62.5, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0};
  Rng rng(20260422);
  for (std::size_t n = 1; n <= 1000; ++n) {
    const auto last = static_cast<std::int64_t>(n) - 1;
    const std::int64_t spread = std::max<std::int64_t>(1, last / 4);
    std::vector<double> values(n);
    for (double& v : values) {
      v = n % 3 != 0
              ? 0.25 * static_cast<double>(rng.uniform_int(-spread, spread))
              : rng.uniform(-50.0, 50.0);
    }
    if (n % 7 == 0) {
      values[static_cast<std::size_t>(rng.uniform_int(0, last))] = -0.0;
      values[static_cast<std::size_t>(rng.uniform_int(0, last))] = 0.0;
    }
    bool negative_zero = false;
    bool positive_zero = false;
    for (const double v : values) {
      if (v == 0.0) (std::signbit(v) ? negative_zero : positive_zero) = true;
    }
    const bool both_zeros = negative_zero && positive_zero;
    for (const double p : grid) {
      const double got = percentile(values, p);
      const double want = sorted_percentile(values, p);
      if (both_zeros) {
        EXPECT_EQ(got, want) << "n=" << n << " p=" << p;
      } else {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "n=" << n << " p=" << p << ": " << got << " vs " << want;
      }
    }
  }
}

TEST(SummaryTest, FieldsAreConsistent) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p5, 5.95, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
}

TEST(SummaryTest, EmptySampleIsAllZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(SummaryTest, SingleValueFillsEveryField) {
  const Summary s = summarize({2.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  for (const double field : {s.mean, s.min, s.p5, s.median, s.p95, s.max}) {
    EXPECT_DOUBLE_EQ(field, 2.5);
  }
}

// summarize() reports what an Accumulator and percentile() report on the
// same sample, bit for bit.
TEST(SummaryTest, MatchesAccumulatorAndPercentile) {
  Rng rng(11);
  std::vector<double> v(257);
  for (double& x : v) x = rng.normal(3.0, 2.0);
  Accumulator acc;
  for (const double x : v) acc.add(x);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, acc.count());
  EXPECT_EQ(s.mean, acc.mean());
  EXPECT_EQ(s.stddev, acc.stddev());
  EXPECT_EQ(s.min, acc.min());
  EXPECT_EQ(s.max, acc.max());
  EXPECT_EQ(s.p5, percentile(v, 5.0));
  EXPECT_EQ(s.median, percentile(v, 50.0));
  EXPECT_EQ(s.p95, percentile(v, 95.0));
}

}  // namespace
}  // namespace ccd::util
