#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/error.hpp"

namespace ccd::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), Error);
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values should appear
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(17);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

TEST(RngTest, PoissonSmallMean) {
  Rng rng(37);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(41);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(43);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(47);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), Error);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(61);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(71);
  Rng child = parent.split();
  // The child stream should not reproduce the parent's outputs.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitIsReproducible) {
  Rng a(73);
  Rng b(73);
  Rng child_a = a.split();
  Rng child_b = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// Checkpoint/resume relies on this: a generator restored from state()
// continues the original stream bit for bit.
TEST(RngTest, StateRoundTripContinuesStream) {
  Rng original(79);
  for (int i = 0; i < 10; ++i) (void)original.next_u64();
  const RngState snapshot = original.state();
  Rng restored(1);
  restored.set_state(snapshot);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.next_u64(), restored.next_u64());
  }
}

TEST(RngTest, StateCarriesCachedNormal) {
  Rng original(83);
  (void)original.normal();  // caches the second Box–Muller deviate
  const RngState snapshot = original.state();
  EXPECT_TRUE(snapshot.has_cached_normal);
  Rng restored(2);
  restored.set_state(snapshot);
  const double cached = original.normal();
  EXPECT_EQ(restored.normal(), cached);
  EXPECT_EQ(snapshot.cached_normal, cached);
  EXPECT_FALSE(original.state().has_cached_normal);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(original.normal(), restored.normal());
}

TEST(RngTest, SetStateRejectsAllZeroWords) {
  Rng rng(89);
  EXPECT_THROW(rng.set_state(RngState{}), Error);
}

TEST(RngTest, PoissonAndBernoulliRejectOutOfDomain) {
  Rng rng(97);
  EXPECT_THROW(rng.poisson(-0.5), Error);
  EXPECT_THROW(rng.bernoulli(-0.1), Error);
  EXPECT_THROW(rng.lognormal(0.0, -1.0), Error);
}

TEST(RngTest, BernoulliEndpointsAreCertain) {
  Rng rng(101);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// The full int64 range has a span of 2^64, which wraps to 0 in the
// rejection sampler; it must draw raw words instead of dividing by zero.
// Ranges wider than INT64_MAX but short of the full range stay in bounds.
TEST(RngTest, UniformIntFullRange) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(103);
  std::set<std::int64_t> seen;
  bool negative = false;
  bool positive = false;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t v = rng.uniform_int(kMin, kMax);
    seen.insert(v);
    (v < 0 ? negative : positive) = true;
  }
  EXPECT_GT(seen.size(), 60u);
  EXPECT_TRUE(negative);
  EXPECT_TRUE(positive);
  for (int i = 0; i < 64; ++i) {
    EXPECT_LE(rng.uniform_int(kMin, 1), 1);
    EXPECT_GE(rng.uniform_int(-1, kMax), -1);
  }
}

TEST(RngTest, LognormalMedianIsExpOfMu) {
  Rng rng(107);
  std::vector<double> draws(20001);
  for (double& d : draws) d = rng.lognormal(1.0, 0.5);
  std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
  EXPECT_NEAR(draws[10000], std::exp(1.0), 0.05 * std::exp(1.0));
}

TEST(RngTest, ShuffleIsDeterministicAndHandlesTinyInputs) {
  std::vector<int> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> b = a;
  Rng ra(109);
  Rng rb(109);
  ra.shuffle(a);
  rb.shuffle(b);
  EXPECT_EQ(a, b);
  std::vector<int> empty;
  std::vector<int> one = {42};
  ra.shuffle(empty);
  ra.shuffle(one);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one, std::vector<int>{42});
}

}  // namespace
}  // namespace ccd::util
