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
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(AccumulatorTest, SingleValueHasZeroVariance) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
}

TEST(AccumulatorTest, MergeMatchesDirectAccumulation) {
  Rng rng(3);
  Accumulator direct;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    direct.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), direct.count());
  EXPECT_NEAR(left.mean(), direct.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), direct.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), direct.min());
  EXPECT_DOUBLE_EQ(left.max(), direct.max());
}

TEST(AccumulatorTest, MergeWithEmptySides) {
  Accumulator a;
  Accumulator empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
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

TEST(StatsFreeFunctionsTest, MeanStddevMedian) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
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

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(HistogramTest, RenderMentionsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  h.add(0.75);
  h.add(0.8);
  const std::string text = h.render(10);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

}  // namespace
}  // namespace ccd::util
