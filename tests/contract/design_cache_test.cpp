#include "contract/design_cache.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "contract/budget.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ccd::contract {
namespace {

// A randomized fleet drawn from a few distinct weight-independent specs —
// the pipeline's sharing pattern.
std::vector<SubproblemSpec> random_fleet(std::size_t n, std::uint64_t seed) {
  const struct {
    double r2, r1, r0, beta, omega, mu;
    std::size_t intervals;
  } classes[] = {
      {-1.0, 8.0, 2.0, 1.0, 0.0, 1.0, 20},
      {-0.8, 6.0, 1.5, 1.2, 0.3, 1.0, 20},
      {-1.2, 9.0, 2.5, 0.9, 0.5, 1.5, 16},
      {-0.9, 7.0, 1.0, 1.0, 0.2, 0.8, 24},
      {-1.1, 8.5, 0.5, 1.4, 0.0, 2.0, 12},
  };
  constexpr std::size_t kClasses = sizeof(classes) / sizeof(classes[0]);
  util::Rng rng(seed);
  std::vector<SubproblemSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cls = classes[rng.next_u64() % kClasses];
    SubproblemSpec spec;
    spec.psi = effort::QuadraticEffort(cls.r2, cls.r1, cls.r0);
    spec.incentives = {cls.beta, cls.omega};
    spec.mu = cls.mu;
    spec.intervals = cls.intervals;
    // Mostly positive weights, with some zero/negative (excluded) and some
    // tiny ones that trigger the negative-utility exclusion fallback.
    spec.weight = rng.uniform(-0.2, 3.0);
    specs.push_back(spec);
  }
  return specs;
}

void expect_identical(const DesignResult& a, const DesignResult& b,
                      std::size_t i) {
  EXPECT_EQ(a.excluded, b.excluded) << "spec " << i;
  EXPECT_EQ(a.k_opt, b.k_opt) << "spec " << i;
  EXPECT_EQ(a.requester_utility, b.requester_utility) << "spec " << i;
  EXPECT_EQ(a.upper_bound, b.upper_bound) << "spec " << i;
  EXPECT_EQ(a.lower_bound, b.lower_bound) << "spec " << i;
  EXPECT_EQ(a.response.effort, b.response.effort) << "spec " << i;
  EXPECT_EQ(a.response.utility, b.response.utility) << "spec " << i;
  EXPECT_EQ(a.response.feedback, b.response.feedback) << "spec " << i;
  EXPECT_EQ(a.response.compensation, b.response.compensation) << "spec " << i;
  EXPECT_EQ(a.response.interval, b.response.interval) << "spec " << i;
  ASSERT_EQ(a.contract.is_zero(), b.contract.is_zero()) << "spec " << i;
  ASSERT_EQ(a.contract.intervals(), b.contract.intervals()) << "spec " << i;
  if (a.contract.is_zero()) return;
  for (std::size_t l = 0; l <= a.contract.intervals(); ++l) {
    EXPECT_EQ(a.contract.payment(l), b.contract.payment(l))
        << "spec " << i << " knot " << l;
    EXPECT_EQ(a.contract.knot(l), b.contract.knot(l))
        << "spec " << i << " knot " << l;
  }
}

TEST(DesignCacheBatchTest, BitwiseIdenticalToPerWorkerPath) {
  // The cache must not change results: batch output == sequential
  // design_contract for every spec, exactly (no tolerance).
  const std::vector<SubproblemSpec> specs = random_fleet(200, 1234);
  const std::vector<DesignResult> batch = design_contracts_batch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  // The per-k menus share one k-sweep per class the same way: a fleet's
  // menus equal each spec's menu on its own.
  const std::vector<BudgetMenu> menus = budget_menus(specs);
  ASSERT_EQ(menus.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DesignResult direct = design_contract(specs[i]);
    expect_identical(batch[i], direct, i);
    const BudgetMenu alone = budget_menus({specs[i]}).front();
    EXPECT_EQ(menus[i].utility, alone.utility) << "spec " << i;
    EXPECT_EQ(menus[i].pay, alone.pay) << "spec " << i;
  }
}

TEST(DesignCacheBatchTest, IndependentOfThreadCount) {
  const std::vector<SubproblemSpec> specs = random_fleet(300, 99);
  util::ThreadPool serial(1);
  util::ThreadPool wide(7);
  BatchOptions serial_options;
  serial_options.pool = &serial;
  BatchOptions wide_options;
  wide_options.pool = &wide;
  const std::vector<DesignResult> a =
      design_contracts_batch(specs, serial_options);
  const std::vector<DesignResult> b =
      design_contracts_batch(specs, wide_options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i], i);
}

TEST(DesignCacheBatchTest, CountsHitsMissesAndSweeps) {
  std::vector<SubproblemSpec> specs;
  SubproblemSpec spec;  // default spec, intervals = 20
  for (std::size_t i = 0; i < 100; ++i) {
    spec.weight = 0.5 + 0.01 * static_cast<double>(i);
    specs.push_back(spec);
  }
  SubproblemSpec other = spec;
  other.incentives.omega = 0.4;  // second distinct class
  specs.push_back(other);

  DesignCacheStats stats;
  design_contracts_batch(specs, {}, &stats);
  EXPECT_EQ(stats.lookups, 101u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 99u);
  EXPECT_EQ(stats.sweep_steps_computed, 2u * 20u);
  EXPECT_EQ(stats.sweep_steps_avoided, 99u * 20u);
}

TEST(DesignCacheBatchTest, ExcludedWeightsSkipTheCache) {
  std::vector<SubproblemSpec> specs(10);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].weight = i < 4 ? 0.0 : 1.0;  // 4 weight-excluded workers
  }
  DesignCacheStats stats;
  const std::vector<DesignResult> results =
      design_contracts_batch(specs, {}, &stats);
  EXPECT_EQ(stats.lookups, 6u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(results[i].excluded);
    EXPECT_TRUE(results[i].contract.is_zero());
  }
  for (std::size_t i = 4; i < 10; ++i) EXPECT_FALSE(results[i].excluded);
}

TEST(DesignCacheBatchTest, SharedCachePersistsAcrossCalls) {
  const std::vector<SubproblemSpec> specs = random_fleet(64, 7);
  DesignCache cache;
  BatchOptions options;
  options.cache = &cache;

  DesignCacheStats first;
  design_contracts_batch(specs, options, &first);
  EXPECT_GT(first.misses, 0u);

  DesignCacheStats second;
  const std::vector<DesignResult> warm =
      design_contracts_batch(specs, options, &second);
  EXPECT_EQ(second.misses, 0u);  // everything served from the warm cache
  EXPECT_EQ(second.hits, second.lookups);
  EXPECT_EQ(second.sweep_steps_computed, 0u);

  // Warm results still identical to the uncached path.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(warm[i], design_contract(specs[i]), i);
  }

  // Cumulative cache counters cover both calls.
  const DesignCacheStats total = cache.stats();
  EXPECT_EQ(total.lookups, first.lookups + second.lookups);
  EXPECT_EQ(total.misses, first.misses);
  EXPECT_EQ(total.hits, total.lookups - total.misses);
}

TEST(DesignCacheTest, SingleDesignGoesThroughCache) {
  DesignCache cache;
  SubproblemSpec spec;
  spec.weight = 1.3;
  const DesignResult a = cache.design(spec);
  spec.weight = 0.7;  // same table, different scalarization
  const DesignResult b = cache.design(spec);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  expect_identical(a, design_contract([&] {
                     SubproblemSpec s;
                     s.weight = 1.3;
                     return s;
                   }()),
                   0);
  expect_identical(b, design_contract([&] {
                     SubproblemSpec s;
                     s.weight = 0.7;
                     return s;
                   }()),
                   1);
}

TEST(DesignCacheTest, KeyIgnoresWeightButSeesEverythingElse) {
  SubproblemSpec spec;
  const DesignCacheKey base = DesignCacheKey::of(spec);

  SubproblemSpec reweighted = spec;
  reweighted.weight = 17.0;
  EXPECT_EQ(DesignCacheKey::of(reweighted), base);

  SubproblemSpec changed = spec;
  changed.mu = 2.0;
  EXPECT_NE(DesignCacheKey::of(changed), base);
  changed = spec;
  changed.incentives.omega = 0.1;
  EXPECT_NE(DesignCacheKey::of(changed), base);
  changed = spec;
  changed.intervals = 21;
  EXPECT_NE(DesignCacheKey::of(changed), base);

  // An explicit domain equal to the default resolves to the same key.
  SubproblemSpec explicit_domain = spec;
  explicit_domain.effort_domain = spec.psi.usable_domain();
  EXPECT_EQ(DesignCacheKey::of(explicit_domain), base);
}

TEST(DesignCacheTest, EqualKeysHashEqually) {
  // The unordered_map invariant the former defaulted operator== violated:
  // value equality said {-0.0} == {+0.0} while the bitwise hash disagreed.
  // Equality is now bitwise and of() canonicalizes zeros, so whenever two
  // keys compare equal they hash equal.
  SubproblemSpec plus;
  plus.incentives.omega = 0.0;
  SubproblemSpec minus = plus;
  minus.incentives.omega = -0.0;  // passes validate (omega >= 0)

  const DesignCacheKey a = DesignCacheKey::of(plus);
  const DesignCacheKey b = DesignCacheKey::of(minus);
  const DesignCacheKeyHash hash;
  EXPECT_EQ(a, b);
  EXPECT_EQ(hash(a), hash(b));

  // Hand-built keys that of() can never produce must still satisfy the
  // invariant's contrapositive: bitwise-unequal zeros compare unequal.
  DesignCacheKey raw_plus;
  DesignCacheKey raw_minus;
  raw_minus.omega = -0.0;
  EXPECT_FALSE(raw_plus == raw_minus);

  // A NaN field compares equal to itself bitwise, so such a key can be
  // found again (value equality made it permanently unfindable).
  DesignCacheKey nan_key;
  nan_key.domain = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(nan_key == nan_key);
  EXPECT_EQ(hash(nan_key), hash(nan_key));
}

TEST(DesignCacheTest, SignOfZeroTwinsShareOneTable) {
  SubproblemSpec plus;
  plus.incentives.omega = 0.0;
  SubproblemSpec minus = plus;
  minus.incentives.omega = -0.0;

  DesignCache cache;
  cache.table_for(plus);
  cache.table_for(minus);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DesignCacheTest, ClearResetsTablesAndCounters) {
  DesignCache cache;
  cache.design(SubproblemSpec{});
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups, 0u);
}

// A cache going out of scope drops its tables like clear() does, so the
// process-wide misses - evictions is the number of tables alive.
TEST(DesignCacheTest, DestructionCountsRemainingTablesAsEvictions) {
  util::metrics::Counter& misses =
      util::metrics::registry().counter("ccd.cache.misses");
  util::metrics::Counter& evictions =
      util::metrics::registry().counter("ccd.cache.evictions");
  const std::uint64_t alive0 = misses.value() - evictions.value();
  {
    DesignCache cache;
    SubproblemSpec other;
    other.mu = 0.5;
    cache.design(SubproblemSpec{});
    cache.design(other);
    ASSERT_EQ(cache.size(), 2u);
    EXPECT_EQ(misses.value() - evictions.value(), alive0 + 2);
  }
  EXPECT_EQ(misses.value() - evictions.value(), alive0);
}

}  // namespace
}  // namespace ccd::contract
