#include "contract/fleet_soa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <typeinfo>
#include <vector>

#include "contract/arena.hpp"
#include "contract/budget.hpp"
#include "contract/candidate.hpp"
#include "contract/design_cache.hpp"
#include "contract/ksweep.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ccd::contract {
namespace {

// Same sharing pattern as the pipeline: a few distinct weight-independent
// specs, weights spanning excluded (<= 0), fallback-tiny, and normal.
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
    spec.weight = rng.uniform(-0.2, 3.0);
    specs.push_back(spec);
  }
  return specs;
}

// Specs exercising the bit-pattern corners of the cache key: -0.0 omega /
// r0 (canonicalized into the +0.0 class) and a denormal r0.
std::vector<SubproblemSpec> tricky_specs() {
  std::vector<SubproblemSpec> specs;
  SubproblemSpec a;
  a.psi = effort::QuadraticEffort(-1.0, 8.0, 0.0);
  a.incentives = {1.0, 0.0};
  a.weight = 1.5;
  specs.push_back(a);

  SubproblemSpec b = a;  // sign-of-zero twin of `a`
  b.psi = effort::QuadraticEffort(-1.0, 8.0, -0.0);
  b.incentives.omega = -0.0;  // passes omega >= 0
  b.weight = 0.7;
  specs.push_back(b);

  SubproblemSpec c = a;  // denormal r0: its own class
  c.psi = effort::QuadraticEffort(
      -1.0, 8.0, std::numeric_limits<double>::denorm_min());
  c.weight = 2.0;
  specs.push_back(c);

  SubproblemSpec d = a;  // weight-excluded member of a's class
  d.weight = -0.0;
  specs.push_back(d);
  return specs;
}

// One worker per class, as in an ingest refit: every spec carries its own
// fitted curve, so the batch runs one k-sweep and one resolve per worker.
std::vector<SubproblemSpec> one_worker_per_class(std::size_t n,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SubproblemSpec> specs(n);
  for (SubproblemSpec& spec : specs) {
    spec.psi = effort::QuadraticEffort(rng.uniform(-1.2, -0.8),
                                       rng.uniform(6.0, 9.0),
                                       rng.uniform(0.5, 2.5));
    spec.incentives = {1.0, rng.uniform(0.0, 1.0) < 0.3 ? 0.4 : 0.0};
    spec.weight = rng.uniform(-0.2, 3.0);
  }
  return specs;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_contract(const Contract& a, const Contract& b) {
  if (a.is_zero() != b.is_zero() || a.intervals() != b.intervals() ||
      !same_bits(a.delta(), b.delta())) {
    return false;
  }
  if (a.is_zero()) return true;
  for (std::size_t l = 0; l <= a.intervals(); ++l) {
    if (!same_bits(a.knot(l), b.knot(l)) ||
        !same_bits(a.payment(l), b.payment(l))) {
      return false;
    }
  }
  return true;
}

// Every DesignResult field, compared by bit pattern (so -0.0 != +0.0).
void expect_bitwise(const DesignResult& got, const DesignResult& want,
                    const std::string& where) {
  EXPECT_TRUE(same_contract(got.contract, want.contract)) << where;
  EXPECT_EQ(got.k_opt, want.k_opt) << where;
  EXPECT_TRUE(same_bits(got.response.effort, want.response.effort)) << where;
  EXPECT_TRUE(same_bits(got.response.utility, want.response.utility))
      << where;
  EXPECT_TRUE(same_bits(got.response.feedback, want.response.feedback))
      << where;
  EXPECT_TRUE(same_bits(got.response.compensation,
                        want.response.compensation))
      << where;
  EXPECT_EQ(got.response.interval, want.response.interval) << where;
  EXPECT_TRUE(same_bits(got.requester_utility, want.requester_utility))
      << where;
  EXPECT_TRUE(same_bits(got.upper_bound, want.upper_bound)) << where;
  EXPECT_TRUE(same_bits(got.lower_bound, want.lower_bound)) << where;
  EXPECT_EQ(got.excluded, want.excluded) << where;
}

void expect_same_stats(const DesignCacheStats& got,
                       const DesignCacheStats& want, const char* where) {
  EXPECT_EQ(got.lookups, want.lookups) << where;
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.sweep_steps_computed, want.sweep_steps_computed) << where;
  EXPECT_EQ(got.sweep_steps_avoided, want.sweep_steps_avoided) << where;
}

// Per-worker outputs of one resolve_class call.
struct Resolved {
  std::vector<std::size_t> k_opt;
  std::vector<double> utility;
  std::vector<double> upper;
};

template <typename Kernel>
Resolved run_kernel(Kernel kernel, const ClassTableau& tableau,
                    const double* weights, std::size_t count) {
  Resolved r{std::vector<std::size_t>(count), std::vector<double>(count),
             std::vector<double>(count)};
  kernel(tableau, weights, count,
         ResolveOut{r.k_opt.data(), r.utility.data(), r.upper.data()});
  return r;
}

void expect_same_resolve(const Resolved& got, const Resolved& want,
                         const std::string& where) {
  ASSERT_EQ(got.k_opt.size(), want.k_opt.size()) << where;
  for (std::size_t j = 0; j < got.k_opt.size(); ++j) {
    EXPECT_EQ(got.k_opt[j], want.k_opt[j]) << where << " worker " << j;
    EXPECT_TRUE(same_bits(got.utility[j], want.utility[j]))
        << where << " worker " << j;
    EXPECT_TRUE(same_bits(got.upper[j], want.upper[j]))
        << where << " worker " << j;
  }
}

/// RAII guard: a test that arms the process-wide injector leaves it off.
struct InjectorGuard {
  ~InjectorGuard() { util::FaultInjector::instance().disable(); }
};

void arm_design_site(double rate, std::uint64_t seed) {
  util::FaultInjectorConfig chaos;
  chaos.enabled = true;
  chaos.seed = seed;
  chaos.site_rates["contract.design"] = rate;  // every other site at 0
  util::FaultInjector::instance().configure(chaos);
}

TEST(ScratchArenaTest, PointersStableAndCapacityRetained) {
  ScratchArena arena;
  double* a = arena.doubles(100);
  a[0] = 1.0;
  a[99] = 2.0;
  // A block-spilling allocation must not move the first span.
  double* b = arena.doubles(10000);
  b[0] = 3.0;
  b[9999] = 4.0;
  EXPECT_EQ(a[0], 1.0);
  EXPECT_EQ(a[99], 2.0);
  EXPECT_EQ(b[0], 3.0);
  EXPECT_EQ(b[9999], 4.0);

  arena.reset();
  // Same demand after reset reuses the blocks: the same spans come back.
  EXPECT_EQ(arena.doubles(100), a);
  EXPECT_EQ(arena.doubles(10000), b);
  EXPECT_EQ(arena.doubles(0), nullptr);
}

TEST(FleetSoATest, GroupsWorkersByCanonicalClass) {
  const std::vector<SubproblemSpec> specs = tricky_specs();
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  ASSERT_EQ(fleet.workers(), 4u);
  // a, b, d share the canonical class (b only via -0.0 normalization);
  // the denormal-r0 spec is its own class.
  ASSERT_EQ(fleet.classes(), 2u);
  EXPECT_EQ(fleet.class_of[0], 0u);
  EXPECT_EQ(fleet.class_of[1], 0u);
  EXPECT_EQ(fleet.class_of[2], 1u);
  EXPECT_EQ(fleet.class_of[3], 0u);
  // Canonical fields: the -0.0s are stored as +0.0.
  EXPECT_FALSE(std::signbit(fleet.omega[0]));
  EXPECT_FALSE(std::signbit(fleet.r0[0]));
  EXPECT_EQ(fleet.first_positive[0], 0u);
  EXPECT_EQ(fleet.first_positive[1], 2u);
  // CSR: class 0 holds workers {0, 1, 3} in input order, class 1 holds {2}.
  ASSERT_EQ(fleet.class_begin.size(), 3u);
  EXPECT_EQ(fleet.class_begin[1] - fleet.class_begin[0], 3u);
  EXPECT_EQ(fleet.order[0], 0u);
  EXPECT_EQ(fleet.order[1], 1u);
  EXPECT_EQ(fleet.order[2], 3u);
  EXPECT_EQ(fleet.order[3], 2u);
  EXPECT_EQ(fleet.grouped_weight[2], specs[3].weight);
}

TEST(FleetSoATest, AllExcludedClassHasNoRepresentative) {
  std::vector<SubproblemSpec> specs = tricky_specs();
  for (SubproblemSpec& spec : specs) {
    if (spec.intervals == specs[2].intervals &&
        spec.psi.r0() == specs[2].psi.r0()) {
      spec.weight = -1.0;
    }
  }
  specs[2].weight = 0.0;
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  EXPECT_EQ(fleet.first_positive[fleet.class_of[2]], FleetSoA::npos);
}

/// from_specs' grouping rebuilt with a std::map over the bit patterns of
/// the canonical keys: classes in first-occurrence order, each class's
/// workers in input order.
struct ReferenceGrouping {
  std::vector<std::size_t> class_of;
  std::vector<std::size_t> order;
  std::vector<std::size_t> class_begin{0};
  std::vector<std::size_t> first_positive;
};

ReferenceGrouping reference_grouping(const std::vector<SubproblemSpec>& specs) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::map<std::array<std::uint64_t, 8>, std::size_t> class_of_key;
  std::vector<std::vector<std::size_t>> members;
  ReferenceGrouping g;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DesignCacheKey k = DesignCacheKey::of(specs[i]);
    const std::array<std::uint64_t, 8> key = {
        bits(k.r2),    bits(k.r1), bits(k.r0),  bits(k.beta),
        bits(k.omega), bits(k.mu), k.intervals, bits(k.domain)};
    const auto [it, inserted] = class_of_key.emplace(key, members.size());
    if (inserted) {
      members.emplace_back();
      g.first_positive.push_back(FleetSoA::npos);
    }
    const std::size_t c = it->second;
    g.class_of.push_back(c);
    members[c].push_back(i);
    if (specs[i].weight > 0.0 && g.first_positive[c] == FleetSoA::npos) {
      g.first_positive[c] = i;
    }
  }
  for (const std::vector<std::size_t>& m : members) {
    g.order.insert(g.order.end(), m.begin(), m.end());
    g.class_begin.push_back(g.order.size());
  }
  return g;
}

// The grouping from_specs builds with its previous-spec shortcut equals
// the reference's, on runs of one class, interleaved classes, a run that
// carries a sign-of-zero twin, a run broken by one foreign spec, and a
// class that returns after others.
TEST(FleetSoATest, RunsAndInterleavingGroupAsReference) {
  SubproblemSpec a;
  a.psi = effort::QuadraticEffort(-1.0, 8.0, 0.0);
  a.incentives = {1.0, 0.0};
  SubproblemSpec twin = a;  // a's class only through -0.0 normalization
  twin.psi = effort::QuadraticEffort(-1.0, 8.0, -0.0);
  twin.incentives.omega = -0.0;
  SubproblemSpec b = a;
  b.psi = effort::QuadraticEffort(-0.8, 6.0, 1.5);
  b.incentives.omega = 0.3;
  SubproblemSpec c = a;
  c.intervals = 16;
  const SubproblemSpec* const pattern[] = {
      &a, &a, &a, &a,                       // a run
      &b, &b, &b, &c, &b, &b,               // a run broken by one c
      &a, &b, &a, &b, &c, &a, &c,           // interleaved
      &a, &a, &twin, &a, &twin, &twin, &a,  // a run with its twin
      &c, &c, &b, &a,                       // classes returning
  };
  util::Rng rng(31);
  std::vector<SubproblemSpec> specs;
  for (int rep = 0; rep < 3; ++rep) {
    for (const SubproblemSpec* spec : pattern) {
      specs.push_back(*spec);
      // Some members weight-excluded, so first_positive is not always a
      // class's first member.
      specs.back().weight = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.1, 3.0);
    }
  }
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  const ReferenceGrouping want = reference_grouping(specs);
  ASSERT_EQ(fleet.classes(), 3u);
  EXPECT_EQ(fleet.class_of, want.class_of);
  EXPECT_EQ(fleet.order, want.order);
  EXPECT_EQ(fleet.class_begin, want.class_begin);
  EXPECT_EQ(fleet.first_positive, want.first_positive);
  for (std::size_t pos = 0; pos < specs.size(); ++pos) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fleet.grouped_weight[pos]),
              std::bit_cast<std::uint64_t>(specs[want.order[pos]].weight));
  }
  // The class fields are the canonical key: a's +0.0, not the twin's -0.0.
  EXPECT_FALSE(std::signbit(fleet.r0[fleet.class_of[0]]));
  EXPECT_FALSE(std::signbit(fleet.omega[fleet.class_of[0]]));

  // The same on a shuffled copy and on random fleets with few runs.
  std::vector<SubproblemSpec> shuffled = specs;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_u64() % i]);
  }
  for (const std::vector<SubproblemSpec>& fleet_specs :
       {shuffled, random_fleet(500, 5), random_fleet(64, 6)}) {
    const FleetSoA got = FleetSoA::from_specs(fleet_specs);
    const ReferenceGrouping ref = reference_grouping(fleet_specs);
    EXPECT_EQ(got.class_of, ref.class_of);
    EXPECT_EQ(got.order, ref.order);
    EXPECT_EQ(got.class_begin, ref.class_begin);
    EXPECT_EQ(got.first_positive, ref.first_positive);
  }
}

// A grouping with hundreds of classes and no runs: the flat class index
// grows several times and probes past taken slots, and must still number
// the classes in first-occurrence order, as the reference does, with each
// class's sign-of-zero twin in the class of its first member.
TEST(FleetSoATest, ManyInterleavedClassesGroupAsReference) {
  const std::vector<SubproblemSpec> distinct = one_worker_per_class(700, 63);
  util::Rng rng(64);
  std::vector<SubproblemSpec> specs;
  for (std::size_t i = 0; i < 3000; ++i) {
    // Mostly new classes early, mostly returning ones later.
    const std::size_t limit = std::min(distinct.size(), i / 3 + 1);
    SubproblemSpec spec = distinct[rng.next_u64() % limit];
    if (spec.incentives.omega == 0.0 && rng.bernoulli(0.3)) {
      spec.incentives.omega = -0.0;
    }
    spec.weight = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 3.0);
    specs.push_back(spec);
  }
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  const ReferenceGrouping want = reference_grouping(specs);
  EXPECT_GT(fleet.classes(), 600u);
  EXPECT_EQ(fleet.class_of, want.class_of);
  EXPECT_EQ(fleet.order, want.order);
  EXPECT_EQ(fleet.class_begin, want.class_begin);
  EXPECT_EQ(fleet.first_positive, want.first_positive);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t c = fleet.class_of[i];
    const DesignCacheKey key = DesignCacheKey::of(specs[i]);
    EXPECT_TRUE(same_bits(fleet.r2[c], key.r2) &&
                same_bits(fleet.omega[c], key.omega) &&
                fleet.intervals[c] == key.intervals)
        << "worker " << i;
  }
}

// The one fleet-design path against the reference, field by field and bit
// for bit: cold and warm cache, one and four threads, cached per-spec
// design too. The vectorized kernels use only mul/sub/compare and
// ccd_contract is built without FMA contraction, so every lane performs
// the scalar rounding sequence, including on the -0.0/denormal classes.
TEST(FleetDesignTest, BatchMatchesDesignContractBitwise) {
  const std::vector<SubproblemSpec> tricky = tricky_specs();
  std::vector<std::vector<SubproblemSpec>> fleets = {
      random_fleet(150, 42), random_fleet(150, 43), random_fleet(100, 44),
      random_fleet(60, 45),  random_fleet(80, 1),   random_fleet(80, 7),
      random_fleet(80, 1234)};
  for (const std::size_t f : {1, 4, 5, 6}) {
    fleets[f].insert(fleets[f].end(), tricky.begin(), tricky.end());
  }
  // A sign-of-zero twin in the §V fallback (weight too small to pay for):
  // its exclusion response comes from the canonical class spec.
  SubproblemSpec twin = tricky[1];
  twin.weight = 1e-4;
  const DesignResult twin_reference = design_contract(twin);
  ASSERT_TRUE(twin_reference.excluded);
  ASSERT_FALSE(budget_menus({twin}).front().utility.empty());
  fleets[1].push_back(twin);
  fleets.push_back(one_worker_per_class(60, 46));

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    const std::vector<SubproblemSpec>& specs = fleets[f];
    DesignCache cache;
    BatchOptions options;
    options.pool = &one;
    options.cache = &cache;
    std::vector<std::uint8_t> resolved;
    options.resolved = &resolved;
    const std::vector<DesignResult> cold =
        design_contracts_batch(specs, options);
    EXPECT_EQ(resolved, std::vector<std::uint8_t>(specs.size(), 1));
    options.pool = &four;
    const std::vector<DesignResult> warm =
        design_contracts_batch(specs, options);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string where =
          "fleet " + std::to_string(f) + " worker " + std::to_string(i);
      const DesignResult reference = design_contract(specs[i]);
      expect_bitwise(cold[i], reference, where + " (cold)");
      expect_bitwise(warm[i], reference, where + " (warm)");
      expect_bitwise(cache.design(specs[i]), reference, where + " (cached)");
    }
  }
}

// Without options.cache the batch designs through a call-local cache, whose
// tables die with the call. Each result's Contract shares its storage with
// the class's other workers that select the same k, so the copies kept
// here must keep that storage alive on their own (under ASan, a dangling
// block fails this test loudly).
TEST(FleetDesignTest, ContractsOutliveTheBatchTables) {
  std::vector<SubproblemSpec> specs = random_fleet(80, 56);
  const std::vector<SubproblemSpec> tricky = tricky_specs();
  specs.insert(specs.end(), tricky.begin(), tricky.end());
  std::vector<Contract> kept;
  {
    const std::vector<DesignResult> results = design_contracts_batch(specs);
    for (const DesignResult& r : results) kept.push_back(r.contract);
  }
  std::size_t paying = 0;
  std::size_t first_paying = specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DesignResult reference = design_contract(specs[i]);
    const std::string where = "worker " + std::to_string(i);
    EXPECT_TRUE(same_contract(kept[i], reference.contract)) << where;
    EXPECT_TRUE(same_bits(kept[i].pay(reference.response.feedback),
                          reference.contract.pay(reference.response.feedback)))
        << where;
    if (kept[i].is_zero()) continue;
    ++paying;
    first_paying = std::min(first_paying, i);
  }
  ASSERT_GT(paying, specs.size() / 2);
  // A copy of a copy still reads the same block after the rest are gone.
  const Contract survivor = kept[first_paying];
  kept.clear();
  EXPECT_TRUE(same_contract(survivor,
                            design_contract(specs[first_paying]).contract));
}

// The batch builds each selected candidate from its class table's knots
// and payment prefix. build_candidate runs its own Eq. 39/40 recurrence up
// to k and computes its own knots, so every resolved worker's contract must
// equal it knot for knot and payment for payment, at m = 1, 20 and 128,
// for honest and omega > 0 classes. Workers of a class that select the
// same k hold equal contracts.
TEST(FleetDesignTest, ContractsMatchAnIndependentCandidateBuild) {
  constexpr std::size_t kPerClass = 12;
  util::Rng rng(2024);
  std::vector<SubproblemSpec> specs;
  for (const std::size_t m : {1, 20, 128}) {
    for (int c = 0; c < 4; ++c) {
      SubproblemSpec cls;
      cls.psi = effort::QuadraticEffort(rng.uniform(-1.3, -0.7),
                                        rng.uniform(6.0, 9.0),
                                        rng.uniform(0.5, 2.5));
      cls.incentives = {rng.uniform(0.6, 1.4),
                        c % 2 == 0 ? 0.0 : rng.uniform(0.1, 0.6)};
      cls.mu = rng.uniform(0.5, 2.0);
      cls.intervals = m;
      for (std::size_t w = 0; w < kPerClass; ++w) {
        specs.push_back(cls);
        specs.back().weight = rng.uniform(-0.2, 4.0);
      }
    }
  }
  const std::vector<DesignResult> results = design_contracts_batch(specs);
  std::size_t checked = 0;
  std::size_t shared = 0;
  std::size_t omega_checked = 0;
  std::vector<std::vector<const Contract*>> by_k(specs.size() / kPerClass);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DesignResult& result = results[i];
    const std::string where = "worker " + std::to_string(i);
    if (result.excluded) {
      EXPECT_TRUE(result.contract.is_zero()) << where;
      continue;
    }
    const SubproblemSpec& spec = specs[i];
    EXPECT_TRUE(same_contract(
        result.contract, build_candidate(spec.psi, spec.delta(), spec.intervals,
                                         result.k_opt, spec.incentives)))
        << where << " k " << result.k_opt;
    ++checked;
    if (spec.incentives.omega > 0.0) ++omega_checked;
    std::vector<const Contract*>& seen = by_k[i / kPerClass];
    seen.resize(spec.intervals + 1, nullptr);
    if (seen[result.k_opt] == nullptr) {
      seen[result.k_opt] = &result.contract;
    } else {
      EXPECT_TRUE(same_contract(*seen[result.k_opt], result.contract))
          << where;
      ++shared;
    }
  }
  EXPECT_GT(checked, specs.size() / 2);
  EXPECT_GT(omega_checked, 0u);
  EXPECT_GT(shared, 0u);
  // Some class selects more than one k, so sharing is per (class, k).
  const auto distinct = [](const std::vector<const Contract*>& seen) {
    return std::count_if(seen.begin(), seen.end(),
                         [](const Contract* c) { return c != nullptr; });
  };
  EXPECT_TRUE(std::any_of(by_k.begin(), by_k.end(), [&](const auto& seen) {
    return distinct(seen) > 1;
  }));
}

// Each class's table is built from its first positive-weight member, so
// the input order decides which sign-of-zero twin reaches the cache.
// Reversing the fleet changes every representative and the class order;
// no result may change.
TEST(FleetDesignTest, InputOrderDoesNotChangeAnyResult) {
  std::vector<SubproblemSpec> specs = random_fleet(90, 50);
  const std::vector<SubproblemSpec> tricky = tricky_specs();
  specs.insert(specs.end(), tricky.begin(), tricky.end());
  SubproblemSpec twin = tricky[1];
  twin.weight = 1e-4;  // §V fallback member of the twins' class
  specs.push_back(twin);
  const std::vector<SubproblemSpec> reversed(specs.rbegin(), specs.rend());

  const std::vector<DesignResult> forward = design_contracts_batch(specs);
  const std::vector<DesignResult> backward = design_contracts_batch(reversed);
  ASSERT_EQ(backward.size(), forward.size());
  const std::size_t n = specs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string where = "worker " + std::to_string(i);
    expect_bitwise(backward[n - 1 - i], forward[i], where + " (reversed)");
    expect_bitwise(forward[i], design_contract(specs[i]), where);
  }
}

// Resolve scratch is one arena per pool thread, reused across classes and
// calls. On one thread every class goes through the same arena, while m
// and the class size shrink and grow between classes; a 2,500-worker
// class spills the arena past its first block before small classes reuse
// it. Every result still matches the per-spec reference bit for bit.
TEST(FleetDesignTest, ScratchReuseAcrossClassSizesStaysBitwise) {
  const struct {
    std::size_t intervals;
    std::size_t members;
  } shapes[] = {{64, 1}, {1, 300}, {200, 2}, {3, 2500}, {20, 5},
                {128, 1}, {2, 64}, {40, 9}, {8, 1}};
  util::Rng rng(51);
  std::vector<SubproblemSpec> specs;
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    SubproblemSpec cls;
    cls.psi = effort::QuadraticEffort(rng.uniform(-1.2, -0.8),
                                      rng.uniform(6.0, 9.0),
                                      rng.uniform(0.5, 2.5));
    cls.incentives = {1.0, s % 3 == 0 ? 0.4 : 0.0};
    cls.intervals = shapes[s].intervals;
    for (std::size_t j = 0; j < shapes[s].members; ++j) {
      cls.weight = rng.uniform(-0.2, 3.0);
      specs.push_back(cls);
    }
  }
  // Interleave the classes so grouping, not input order, makes the slices.
  std::vector<SubproblemSpec> shuffled = specs;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_u64() % i]);
  }

  util::ThreadPool one(1);
  BatchOptions options;
  options.pool = &one;
  for (const std::vector<SubproblemSpec>* fleet : {&specs, &shuffled}) {
    const std::vector<DesignResult> results =
        design_contracts_batch(*fleet, options);
    ASSERT_EQ(results.size(), fleet->size());
    DesignCache reference;  // resolve_design over one table per class
    for (std::size_t i = 0; i < fleet->size(); ++i) {
      expect_bitwise(results[i], reference.design((*fleet)[i]),
                     "worker " + std::to_string(i));
    }
  }
}

bool same_response(const BestResponse& a, const BestResponse& b) {
  return same_bits(a.effort, b.effort) && same_bits(a.utility, b.utility) &&
         same_bits(a.feedback, b.feedback) &&
         same_bits(a.compensation, b.compensation) &&
         a.interval == b.interval;
}

void expect_same_table(const DesignTable& got, const DesignTable& want,
                       const std::string& where) {
  EXPECT_TRUE(same_bits(got.delta, want.delta)) << where;
  ASSERT_EQ(got.knots.size(), want.knots.size()) << where;
  ASSERT_EQ(got.pay_prefix.size(), want.pay_prefix.size()) << where;
  ASSERT_EQ(got.responses.size(), want.responses.size()) << where;
  for (std::size_t l = 0; l < want.knots.size(); ++l) {
    EXPECT_TRUE(same_bits(got.knots[l], want.knots[l])) << where << " l " << l;
    EXPECT_TRUE(same_bits(got.pay_prefix[l], want.pay_prefix[l]))
        << where << " l " << l;
  }
  for (std::size_t k = 0; k < want.responses.size(); ++k) {
    EXPECT_TRUE(same_response(got.responses[k], want.responses[k]))
        << where << " k " << k + 1;
  }
}

// Without a cache, each class's table is built into its thread's scratch
// table, which the thread's next class rebuilds in place, in the same call
// or the next. Back-to-back uncached batches alternate m between 128, 1
// and 20 and omega between 0 and > 0, so the table shrinks and grows
// between classes. Each fleet also holds a class that the §V fallback
// excludes and a class whose only member has weight 0. Every result
// matches design_contract bit for bit on one and four threads, and a
// rebuild into a larger table equals a fresh build field for field.
TEST(FleetDesignTest, ThreadTableReuseStaysBitwise) {
  const struct {
    std::size_t intervals;
    double omega;
  } shapes[] = {{128, 0.0}, {1, 0.4}, {20, 0.0},
                {128, 0.4}, {1, 0.0}, {20, 0.4}};
  util::Rng rng(57);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < std::size(shapes); ++s) {
      std::vector<SubproblemSpec> specs(24);
      for (SubproblemSpec& spec : specs) {
        spec.psi = effort::QuadraticEffort(rng.uniform(-1.2, -0.8),
                                           rng.uniform(6.0, 9.0),
                                           rng.uniform(0.5, 2.5));
        spec.incentives = {rng.uniform(0.8, 1.2), shapes[s].omega};
        spec.intervals = shapes[s].intervals;
        spec.weight = rng.uniform(0.2, 3.0);
      }
      SubproblemSpec fallback = specs[0];  // pays nothing worth its weight
      fallback.psi = effort::QuadraticEffort(-1.0, 8.0, 0.0);
      fallback.incentives.omega = 0.0;  // no free feedback either
      fallback.weight = 1e-4;
      specs.insert(specs.begin() + 5, fallback);
      SubproblemSpec idle = specs[1];  // a class of one weight-0 worker
      idle.psi = effort::QuadraticEffort(-1.0, 7.5, 1.0);
      idle.weight = 0.0;
      specs.insert(specs.begin() + 11, idle);

      BatchOptions options;
      options.pool = pass == 0 ? &one : &four;
      const std::vector<DesignResult> results =
          design_contracts_batch(specs, options);
      ASSERT_EQ(results.size(), specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const DesignResult reference = design_contract(specs[i]);
        expect_bitwise(results[i], reference,
                       "pass " + std::to_string(pass) + " shape " +
                           std::to_string(s) + " worker " + std::to_string(i));
      }
      // Both exclusion paths ran: the §V fallback at a positive weight,
      // and the weight-0 class that needs no table.
      EXPECT_TRUE(results[5].excluded) << "shape " << s;
      EXPECT_TRUE(results[11].excluded) << "shape " << s;
    }
  }

  // A table reused after a larger build holds only the new spec's values.
  SubproblemSpec large;
  large.psi = effort::QuadraticEffort(-0.9, 7.0, 1.0);
  large.incentives = {1.0, 0.3};
  large.intervals = 128;
  DesignTable reused;
  for (const std::size_t m : {1, 20, 128, 2}) {
    build_design_table(large, reused);
    SubproblemSpec spec = large;
    spec.psi = effort::QuadraticEffort(-1.1, 8.0, 2.0);
    spec.incentives.omega = m % 2 == 0 ? 0.0 : 0.5;
    spec.intervals = m;
    build_design_table(spec, reused);
    expect_same_table(reused, build_design_table(spec),
                      "m " + std::to_string(m));
  }
}

// Portable and AVX2 kernels over every class of random fleets, including
// the ±0.0/denormal classes and both sides of the §V exclusion boundary.
// The batch runs whichever kernel the CPU supports, so on an AVX2 machine
// this is the only fleet-wide check of the portable loop (on other CPUs
// both sides run the portable loop).
TEST(FleetDesignTest, PortableFallbackMatchesSimd) {
  for (const std::uint64_t seed : {44ull, 49ull}) {
    std::vector<SubproblemSpec> specs = random_fleet(100, seed);
    const std::vector<SubproblemSpec> tricky = tricky_specs();
    specs.insert(specs.end(), tricky.begin(), tricky.end());
    const FleetSoA fleet = FleetSoA::from_specs(specs);
    std::size_t classes_checked = 0;
    for (std::size_t c = 0; c < fleet.classes(); ++c) {
      if (fleet.first_positive[c] == FleetSoA::npos) continue;
      const SubproblemSpec cls = fleet.class_spec(c);
      const DesignTable table = build_design_table(cls);
      ScratchArena arena;
      const ClassTableau tableau = build_class_tableau(cls, table, arena);
      const std::size_t begin = fleet.class_begin[c];
      const std::size_t count = fleet.class_begin[c + 1] - begin;
      const double* weights = fleet.grouped_weight.data() + begin;
      expect_same_resolve(run_kernel(resolve_class, tableau, weights, count),
                          run_kernel(detail::resolve_class_portable, tableau,
                                     weights, count),
                          "seed " + std::to_string(seed) + " class " +
                              std::to_string(c));
      ++classes_checked;
    }
    EXPECT_GE(classes_checked, 5u) << "seed " << seed;
  }
}

// The batch's computed per-call counters and the cache's cumulative ones
// must equal what the per-spec path (DesignCache::design, the lenient
// solve's per-task route) records for the same fleet, cold and warm: one
// lookup per positive-weight worker, one miss per distinct class.
TEST(FleetDesignTest, StatsMatchBatchAccounting) {
  std::vector<SubproblemSpec> specs = random_fleet(120, 46);
  const std::vector<SubproblemSpec> tricky = tricky_specs();
  specs.insert(specs.end(), tricky.begin(), tricky.end());

  DesignCache per_spec;
  DesignCache batched;
  BatchOptions options;
  options.cache = &batched;
  DesignCacheStats before;
  for (const char* pass : {"cold", "warm"}) {
    for (const SubproblemSpec& spec : specs) per_spec.design(spec);
    const DesignCacheStats total = per_spec.stats();
    DesignCacheStats expected_call = total;
    expected_call.lookups -= before.lookups;
    expected_call.hits -= before.hits;
    expected_call.misses -= before.misses;
    expected_call.sweep_steps_computed -= before.sweep_steps_computed;
    expected_call.sweep_steps_avoided -= before.sweep_steps_avoided;

    DesignCacheStats call;
    design_contracts_batch(specs, options, &call);
    expect_same_stats(call, expected_call, pass);
    expect_same_stats(batched.stats(), total, pass);
    EXPECT_EQ(batched.size(), per_spec.size()) << pass;
    before = total;
  }
  EXPECT_EQ(before.misses, per_spec.size());
}

TEST(FleetDesignTest, EmptyFleetDesignsNothing) {
  DesignCache cache;
  BatchOptions options;
  options.cache = &cache;
  std::vector<std::uint8_t> resolved = {1, 1};
  options.resolved = &resolved;
  DesignCacheStats stats;
  stats.lookups = stats.hits = 9;  // overwritten, not accumulated
  const std::vector<DesignResult> results =
      design_contracts_batch({}, options, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(resolved.empty());
  expect_same_stats(stats, DesignCacheStats{}, "call");
  expect_same_stats(cache.stats(), DesignCacheStats{}, "cache");
  EXPECT_EQ(cache.size(), 0u);
}

// Every spec is validated, in input order, before any k-sweep runs: an
// invalid spec anywhere in the fleet throws and leaves the cache empty.
TEST(FleetDesignTest, InvalidSpecThrowsBeforeAnySweep) {
  std::vector<SubproblemSpec> specs = random_fleet(30, 52);
  DesignCache cache;
  BatchOptions options;
  options.cache = &cache;
  for (const std::size_t bad : {0ul, 17ul, 29ul}) {
    std::vector<SubproblemSpec> fleet = specs;
    fleet[bad].mu = 0.0;
    EXPECT_THROW(design_contracts_batch(fleet, options), Error) << bad;
    fleet = specs;
    fleet[bad].intervals = 0;
    EXPECT_THROW(design_contracts_batch(fleet, options), Error) << bad;
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups, 0u);
}

// A token cancelled before the call: no sweep and no resolve runs, every
// entry stays unresolved and default-constructed, and nothing is counted.
TEST(FleetDesignTest, PreCancelledBatchResolvesNothing) {
  const std::vector<SubproblemSpec> specs = random_fleet(60, 53);
  util::CancellationToken token;
  token.request_cancel();
  DesignCache cache;
  BatchOptions options;
  options.cache = &cache;
  options.cancel = &token;
  std::vector<std::uint8_t> resolved;
  options.resolved = &resolved;
  DesignCacheStats stats;
  const std::vector<DesignResult> results =
      design_contracts_batch(specs, options, &stats);
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(resolved, std::vector<std::uint8_t>(specs.size(), 0));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].excluded) << "worker " << i;
    EXPECT_EQ(results[i].k_opt, 0u) << "worker " << i;
    EXPECT_TRUE(results[i].contract.is_zero()) << "worker " << i;
    EXPECT_EQ(results[i].requester_utility, 0.0) << "worker " << i;
  }
  expect_same_stats(stats, DesignCacheStats{}, "call");
  EXPECT_EQ(cache.size(), 0u);
}

// sweep_histogram gets one span per class with a positive-weight member:
// the k-sweep on a miss, the table lookup on a hit. Weight-excluded-only
// classes and per-worker resolves record nothing.
TEST(FleetDesignTest, SweepHistogramRecordsOneSpanPerClass) {
  std::vector<SubproblemSpec> specs = random_fleet(120, 54);
  SubproblemSpec idle = specs[0];  // a class whose members are all excluded
  idle.incentives.beta = 3.0;
  idle.weight = 0.0;
  specs.push_back(idle);
  idle.weight = -1.0;
  specs.push_back(idle);

  const FleetSoA fleet = FleetSoA::from_specs(specs);
  std::size_t with_positive = 0;
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    if (fleet.first_positive[c] != FleetSoA::npos) ++with_positive;
  }
  ASSERT_LT(with_positive, fleet.classes());

  util::metrics::Histogram spans;
  DesignCache cache;
  BatchOptions options;
  options.cache = &cache;
  options.sweep_histogram = &spans;
  design_contracts_batch(specs, options);
  EXPECT_EQ(spans.snapshot().count, with_positive);
  design_contracts_batch(specs, options);  // warm: lookups only
  EXPECT_EQ(spans.snapshot().count, 2 * with_positive);
}

// The batch runs the "contract.design" site with the key resolve_design
// uses, so under any seed and rate a spec faults in the batch exactly when
// it faults on its own through design_contract.
TEST(FleetDesignTest, DesignFaultElectsTheSameSpecsAsDesignContract) {
  InjectorGuard guard;
  arm_design_site(0.5, 11);
  std::vector<SubproblemSpec> specs = one_worker_per_class(40, 55);
  const std::vector<SubproblemSpec> tricky = tricky_specs();
  specs.insert(specs.end(), tricky.begin(), tricky.end());
  std::size_t faulted = 0;
  std::size_t clean = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    bool reference_faults = false;
    try {
      design_contract(specs[i]);
    } catch (const ContractError&) {
      reference_faults = true;
    }
    bool batch_faults = false;
    try {
      design_contracts_batch({specs[i]});
    } catch (const ContractError&) {
      batch_faults = true;
    }
    EXPECT_EQ(batch_faults, reference_faults) << "worker " << i;
    if (reference_faults) {
      ++faulted;
    } else {
      ++clean;
    }
  }
  // The seed elects some specs and spares others.
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(clean, 0u);
}

// With an error sink the batch designs, bit for bit, every spec that its
// own design_contract designs, and gives every other spec the error that
// design_contract throws for it (same type, same message), a default
// result and resolved 0. Validation reads only the class key, so it fails
// each member of the invalid class at any weight; the "contract.design"
// fault point fails its spec alone. Fault decisions depend only on (seed,
// site, key), so the reference meets the same faults. The counters still
// equal the per-spec DesignCache::design route's: its table lookup runs
// before the fault point, and an invalid spec never looks one up.
TEST(FleetDesignTest, ErrorSinkMatchesPerSpecDesign) {
  InjectorGuard guard;
  std::vector<SubproblemSpec> specs = random_fleet(80, 58);
  const std::vector<SubproblemSpec> tricky = tricky_specs();  // ±0.0 twins
  specs.insert(specs.end(), tricky.begin(), tricky.end());
  SubproblemSpec invalid = specs[3];  // beta = 0: fails validation
  invalid.incentives.beta = 0.0;
  for (const double weight : {1.2, 0.0, -0.5, 2.0}) {
    invalid.weight = weight;
    specs.insert(specs.begin() + static_cast<std::ptrdiff_t>(specs.size() / 2),
                 invalid);
  }
  SubproblemSpec idle = specs[5];  // a §V class: no candidate pays off
  idle.psi = effort::QuadraticEffort(-1.0, 7.0, 0.0);
  idle.incentives = {1.0, 0.0};
  for (const double weight : {1e-4, 2e-4, 0.0}) {
    idle.weight = weight;
    specs.push_back(idle);
  }

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  std::size_t faulted = 0;
  std::size_t invalid_seen = 0;
  std::size_t excluded_positive = 0;
  for (const std::uint64_t seed : {3ull, 8ull, 21ull}) {
    arm_design_site(0.3, seed);
    std::vector<DesignResult> reference(specs.size());
    std::vector<std::exception_ptr> reference_error(specs.size());
    DesignCache per_spec;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      try {
        reference[i] = design_contract(specs[i]);
      } catch (const Error&) {
        reference_error[i] = std::current_exception();
      }
      try {
        per_spec.design(specs[i]);
      } catch (const Error&) {
      }
    }
    for (util::ThreadPool* pool : {&one, &four}) {
      for (const bool cached : {false, true}) {
        const std::string where = "seed " + std::to_string(seed) +
                                  (pool == &one ? ", 1 thread" : ", 4 threads") +
                                  (cached ? ", cached" : ", uncached");
        DesignCache cache;
        std::vector<std::uint8_t> resolved;
        std::vector<std::exception_ptr> errors = {nullptr};  // overwritten
        BatchOptions options;
        options.pool = pool;
        options.cache = cached ? &cache : nullptr;
        options.resolved = &resolved;
        options.errors = &errors;
        DesignCacheStats call;
        const std::vector<DesignResult> results =
            design_contracts_batch(specs, options, &call);
        ASSERT_EQ(results.size(), specs.size()) << where;
        ASSERT_EQ(errors.size(), specs.size()) << where;
        ASSERT_EQ(resolved.size(), specs.size()) << where;
        expect_same_stats(call, per_spec.stats(), where.c_str());
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const std::string at = where + ", worker " + std::to_string(i);
          if (!reference_error[i]) {
            EXPECT_EQ(errors[i], nullptr) << at;
            EXPECT_EQ(resolved[i], 1) << at;
            expect_bitwise(results[i], reference[i], at);
            if (results[i].excluded && specs[i].weight > 0.0) {
              ++excluded_positive;
            }
            continue;
          }
          EXPECT_EQ(resolved[i], 0) << at;
          expect_bitwise(results[i], DesignResult{}, at);
          ASSERT_NE(errors[i], nullptr) << at;
          try {
            std::rethrow_exception(reference_error[i]);
          } catch (const Error& want) {
            try {
              std::rethrow_exception(errors[i]);
            } catch (const Error& got) {
              EXPECT_EQ(typeid(got), typeid(want)) << at;
              EXPECT_EQ(got.message(), want.message()) << at;
              if (dynamic_cast<const ContractError*>(&want)) {
                ++faulted;
              } else {
                ++invalid_seen;
              }
            } catch (...) {
              ADD_FAILURE() << at << ": the sink holds a non-ccd::Error";
            }
          }
        }
      }
    }
  }
  // Each seed faults some specs; the invalid class fails all four members
  // in every run; the §V class excludes its positive-weight members.
  EXPECT_GT(faulted, 0u);
  EXPECT_EQ(invalid_seen, 3u * 4u * 4u);
  EXPECT_GT(excluded_positive, 0u);
}

// Weight-excluded workers never reach the site: armed at rate 1.0, a fleet
// with no positive weight designs cleanly, and one positive-weight worker
// is enough to fail the whole batch.
TEST(FleetDesignTest, WeightExcludedWorkersNeverReachTheFaultSite) {
  InjectorGuard guard;
  arm_design_site(1.0, 12);
  std::vector<SubproblemSpec> specs = random_fleet(50, 56);
  for (SubproblemSpec& spec : specs) spec.weight = -std::abs(spec.weight);
  specs[7].weight = 0.0;
  specs[8].weight = -0.0;

  const std::vector<DesignResult> results = design_contracts_batch(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(results[i].excluded) << "worker " << i;
    expect_bitwise(results[i], design_contract(specs[i]),
                   "worker " + std::to_string(i));
  }
  EXPECT_EQ(util::FaultInjector::instance().injected("contract.design"), 0u);

  specs[20].weight = 1.0;
  EXPECT_THROW(design_contracts_batch(specs), ContractError);
  EXPECT_GT(util::FaultInjector::instance().injected("contract.design"), 0u);
}

// A record holding its spec and its result among other fields, as the
// pipeline's SubproblemOutcome does.
struct Embedded {
  std::uint32_t tag = 0;
  SubproblemSpec spec;
  double before = 0.0;
  DesignResult result;
  bool flag = false;
};

// The same error, or none: same type and message.
void expect_same_error(const std::exception_ptr& got,
                       const std::exception_ptr& want,
                       const std::string& where) {
  ASSERT_EQ(got == nullptr, want == nullptr) << where;
  if (!want) return;
  try {
    std::rethrow_exception(want);
  } catch (const Error& w) {
    try {
      std::rethrow_exception(got);
    } catch (const Error& g) {
      EXPECT_EQ(typeid(g), typeid(w)) << where;
      EXPECT_EQ(g.message(), w.message()) << where;
    }
  }
}

// design_contracts_in_place over specs and results that live inside larger
// records, with the weights in their own array, designs exactly what the
// vector form designs for copies of the specs carrying those weights: the
// same results bit for bit, the same resolved flags, errors and counters,
// with and without an error sink, the "contract.design" site at 0.3,
// cache and no cache, one and four threads, and a pre-cancelled token.
// Some positive-weight specs are designed at weight 0 from the array. An
// entry left unresolved keeps what its result held, and no other field of
// a record changes.
TEST(FleetDesignTest, InPlaceEntryMatchesVectorFormBitwise) {
  InjectorGuard guard;
  std::vector<SubproblemSpec> clean = random_fleet(120, 62);
  const std::vector<SubproblemSpec> tricky = tricky_specs();
  clean.insert(clean.end(), tricky.begin(), tricky.end());
  SubproblemSpec idle = clean[6];  // a §V class: no candidate pays off
  idle.psi = effort::QuadraticEffort(-1.0, 7.0, 0.0);
  idle.incentives = {1.0, 0.0};
  idle.weight = 1e-4;
  clean.push_back(idle);
  // With a sink, an invalid class too (without one it fails the call).
  std::vector<SubproblemSpec> with_invalid = clean;
  SubproblemSpec invalid = clean[4];  // beta = 0: fails validation
  invalid.incentives.beta = 0.0;
  with_invalid.insert(with_invalid.begin() + 60, invalid);

  DesignResult sentinel;
  sentinel.k_opt = 77;
  sentinel.requester_utility = -3.5;
  sentinel.excluded = true;

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  util::CancellationToken cancelled;
  cancelled.request_cancel();
  std::size_t compared = 0;
  for (const int mode : {0, 1, 2}) {  // no sink; sink; sink and faults
    const bool sink = mode > 0;
    const std::vector<SubproblemSpec>& specs = sink ? with_invalid : clean;
    const std::size_t n = specs.size();
    // Every fifth positive-weight spec is designed at weight 0.
    std::vector<double> weights(n);
    std::vector<SubproblemSpec> priced = specs;
    std::size_t overridden = 0;
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = specs[i].weight;
      if (specs[i].weight > 0.0 && i % 5 == 0) {
        weights[i] = 0.0;
        ++overridden;
      }
      priced[i].weight = weights[i];
    }
    ASSERT_GT(overridden, 10u);
    if (mode == 2) arm_design_site(0.3, 19);
    for (util::ThreadPool* pool : {&one, &four}) {
      for (const bool cached : {false, true}) {
        for (const bool cancel : {false, true}) {
          const std::string where =
              "mode " + std::to_string(mode) +
              (pool == &one ? ", 1 thread" : ", 4 threads") +
              (cached ? ", cached" : ", uncached") +
              (cancel ? ", cancelled" : "");
          DesignCache cache_vector;
          DesignCache cache_view;
          BatchOptions options;
          options.pool = pool;
          options.cancel = cancel ? &cancelled : nullptr;

          std::vector<std::uint8_t> resolved_vector;
          std::vector<std::exception_ptr> errors_vector;
          options.cache = cached ? &cache_vector : nullptr;
          options.resolved = &resolved_vector;
          options.errors = sink ? &errors_vector : nullptr;
          DesignCacheStats stats_vector;
          const std::vector<DesignResult> want =
              design_contracts_batch(priced, options, &stats_vector);

          std::vector<Embedded> records(n);
          for (std::size_t i = 0; i < n; ++i) {
            records[i].tag = static_cast<std::uint32_t>(i);
            records[i].spec = specs[i];
            records[i].before = 0.25 * static_cast<double>(i);
            records[i].result = sentinel;
            records[i].flag = i % 2 == 0;
          }
          BatchView view = BatchView::over(records.data(), n, &Embedded::spec,
                                           &Embedded::result);
          view.weights = weights.data();
          std::vector<std::uint8_t> resolved_view;
          std::vector<std::exception_ptr> errors_view;
          options.cache = cached ? &cache_view : nullptr;
          options.resolved = &resolved_view;
          options.errors = sink ? &errors_view : nullptr;
          DesignCacheStats stats_view;
          design_contracts_in_place(view, options, &stats_view);

          EXPECT_EQ(resolved_view, resolved_vector) << where;
          expect_same_stats(stats_view, stats_vector, where.c_str());
          EXPECT_EQ(cache_view.size(), cache_vector.size()) << where;
          if (sink) {
            ASSERT_EQ(errors_view.size(), n) << where;
          }
          for (std::size_t i = 0; i < n; ++i) {
            const std::string at = where + ", entry " + std::to_string(i);
            const Embedded& record = records[i];
            EXPECT_EQ(record.tag, i) << at;
            EXPECT_TRUE(same_bits(record.spec.weight, specs[i].weight)) << at;
            EXPECT_TRUE(
                same_bits(record.before, 0.25 * static_cast<double>(i)))
                << at;
            EXPECT_EQ(record.flag, i % 2 == 0) << at;
            if (sink) expect_same_error(errors_view[i], errors_vector[i], at);
            if (resolved_view[i]) {
              expect_bitwise(record.result, want[i], at);
              ++compared;
            } else {
              expect_bitwise(record.result, sentinel, at + " (unresolved)");
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 3 * with_invalid.size());
}

// A 0 in the weight array excludes its entry without reaching the
// "contract.design" site, whatever the spec's own weight: armed at rate
// 1.0, a fleet of positive-weight specs designed at weight 0 designs
// cleanly, each entry equal to design_contract at weight 0.
TEST(FleetDesignTest, ZeroWeightOverrideNeverReachesTheFaultSite) {
  InjectorGuard guard;
  arm_design_site(1.0, 23);
  std::vector<SubproblemSpec> specs = random_fleet(40, 65);
  for (SubproblemSpec& spec : specs) spec.weight = std::abs(spec.weight) + 0.1;
  const std::vector<double> zeros(specs.size(), 0.0);
  std::vector<DesignResult> results(specs.size());
  BatchView view;
  view.count = specs.size();
  view.specs = specs.data();
  view.results = results.data();
  view.weights = zeros.data();
  design_contracts_in_place(view);
  EXPECT_EQ(util::FaultInjector::instance().injected("contract.design"), 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SubproblemSpec excluded = specs[i];
    excluded.weight = 0.0;
    EXPECT_TRUE(results[i].excluded) << "worker " << i;
    expect_bitwise(results[i], design_contract(excluded),
                   "worker " + std::to_string(i));
  }
  view.weights = nullptr;  // the specs' own weights reach the site
  EXPECT_THROW(design_contracts_in_place(view), ContractError);
}

TEST(KSweepTest, ResolveClassMatchesResolveDesign) {
  // Direct kernel-level check on one class: portable and AVX2 (when this
  // CPU has it) against resolve_design over a weight sweep that crosses
  // the §V exclusion boundary.
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  spec.incentives = {1.0, 0.4};
  spec.mu = 1.0;
  spec.intervals = 24;
  const DesignTable table = build_design_table(spec);

  std::vector<double> weights;
  for (int i = 0; i < 37; ++i) {
    weights.push_back(0.01 + 0.12 * static_cast<double>(i));
  }
  ScratchArena arena;
  const ClassTableau tableau = build_class_tableau(spec, table, arena);
  const auto check = [&](auto kernel, const char* name) {
    std::vector<std::size_t> k_opt(weights.size());
    std::vector<double> utility(weights.size());
    std::vector<double> upper(weights.size());
    kernel(tableau, weights.data(), weights.size(),
           ResolveOut{k_opt.data(), utility.data(), upper.data()});
    for (std::size_t i = 0; i < weights.size(); ++i) {
      SubproblemSpec worker = spec;
      worker.weight = weights[i];
      const DesignResult reference = resolve_design(worker, table);
      if (reference.excluded) {
        EXPECT_LT(utility[i], 0.0) << name << " worker " << i;
      } else {
        EXPECT_EQ(k_opt[i], reference.k_opt) << name << " worker " << i;
        EXPECT_TRUE(same_bits(utility[i], reference.requester_utility))
            << name << " worker " << i;
        EXPECT_TRUE(same_bits(upper[i], reference.upper_bound))
            << name << " worker " << i;
      }
    }
  };
  check(detail::resolve_class_portable, "portable");
#ifdef CCD_KSWEEP_HAVE_AVX2
  if (simd_available()) check(detail::resolve_class_avx2, "avx2");
#endif
}

// The AVX2 kernel resolves four workers per instruction and finishes the
// slice with a scalar tail. Every slice length from 0 to 13 and every start
// offset 0..3 (so the weights are not vector-aligned) must match the
// portable loop, and a worker must resolve the same alone as in a slice.
TEST(KSweepTest, EverySliceLengthAndOffsetMatchesPortable) {
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(-0.9, 7.0, 1.0);
  spec.incentives = {1.0, 0.2};
  spec.mu = 0.8;
  spec.intervals = 24;
  const DesignTable table = build_design_table(spec);
  ScratchArena arena;
  const ClassTableau tableau = build_class_tableau(spec, table, arena);

  std::vector<double> weights;
  for (int i = 0; i < 17; ++i) {
    weights.push_back(-0.1 + 0.19 * static_cast<double>(i));
  }
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t count = 0; offset + count <= 17 && count <= 13;
         ++count) {
      const double* slice = weights.data() + offset;
      const Resolved got = run_kernel(resolve_class, tableau, slice, count);
      expect_same_resolve(
          got,
          run_kernel(detail::resolve_class_portable, tableau, slice, count),
          "offset " + std::to_string(offset) + " count " +
              std::to_string(count));
      for (std::size_t j = 0; j < count; ++j) {
        const Resolved alone = run_kernel(resolve_class, tableau, slice + j, 1);
        EXPECT_EQ(alone.k_opt[0], got.k_opt[j]);
        EXPECT_TRUE(same_bits(alone.utility[0], got.utility[j]));
        EXPECT_TRUE(same_bits(alone.upper[0], got.upper[j]));
      }
    }
  }

  // An empty slice writes nothing.
  std::size_t k_sentinel = 77;
  double u_sentinel = 1.5;
  double ub_sentinel = 2.5;
  resolve_class(tableau, weights.data(), 0,
                ResolveOut{&k_sentinel, &u_sentinel, &ub_sentinel});
  EXPECT_EQ(k_sentinel, 77u);
  EXPECT_EQ(u_sentinel, 1.5);
  EXPECT_EQ(ub_sentinel, 2.5);
}

// The AVX2 kernel resolves 16 workers per pass in four vectors, then four
// at a time, then the portable loop. Every count from 0 to 64 (up to four
// full passes, with every remainder) at start offsets 0..3 must match the
// portable loop bit for bit: on a design table's tableau, and on a
// hand-made one whose columns tie exactly (equal (feedback, pay) pairs,
// utilities that tie at w = 1, and zero columns whose utilities are +0.0
// or -0.0 by the weight's sign), over weights that include ±0.0, negatives
// and the tying weight.
TEST(KSweepTest, EveryCountToSixtyFourAtEveryOffsetMatchesPortable) {
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(-0.9, 7.0, 1.0);
  spec.incentives = {1.0, 0.3};
  spec.mu = 0.8;
  spec.intervals = 20;
  const DesignTable table = build_design_table(spec);
  ScratchArena arena;
  const ClassTableau from_table = build_class_tableau(spec, table, arena);

  // At mu = 1, every k but 1 and 7 has feedback - pay = 1.
  const std::vector<double> feedback = {0.0, 1.0, 3.0, 3.0, 2.0,
                                        5.0, 0.0, 4.0, 4.5, 6.0};
  const std::vector<double> pay = {0.0, 0.0, 2.0, 2.0, 1.0,
                                   4.0, 0.0, 3.0, 3.5, 5.0};
  ClassTableau tied;
  tied.m = feedback.size();
  tied.mu = 1.0;
  tied.feedback = feedback.data();
  tied.pay = pay.data();
  tied.ub_feedback = feedback.data();
  tied.ub_pay = pay.data();
  tied.has_free_ride = true;
  tied.free_ride_feedback = 1.0;

  const double special[] = {0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 2.0,
                            std::numeric_limits<double>::denorm_min()};
  util::Rng rng(61);
  std::vector<double> weights;
  for (std::size_t i = 0; i < 67; ++i) {
    weights.push_back(i % 3 == 0 ? special[(i / 3) % std::size(special)]
                                 : rng.uniform(-0.5, 3.0));
  }
  const ClassTableau* const tableaus[] = {&from_table, &tied};
  for (const ClassTableau* tableau : tableaus) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t count = 0; count <= 64; ++count) {
        const double* slice = weights.data() + offset;
        expect_same_resolve(
            run_kernel(resolve_class, *tableau, slice, count),
            run_kernel(detail::resolve_class_portable, *tableau, slice, count),
            std::string(tableau == &tied ? "tied" : "table") + " offset " +
                std::to_string(offset) + " count " + std::to_string(count));
      }
    }
  }

  // The ties are real: in a full 16-worker pass at w = 1 the first maximum
  // (k = 2) wins, and at w = ±0.0 the zero columns give +0.0 and -0.0.
  const std::vector<double> ones(16, 1.0);
  const Resolved at_one = run_kernel(resolve_class, tied, ones.data(), 16);
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(at_one.k_opt[j], 2u) << "worker " << j;
    EXPECT_EQ(at_one.utility[j], 1.0) << "worker " << j;
  }
  std::vector<double> zeros(16, 0.0);
  for (std::size_t j = 1; j < 16; j += 2) zeros[j] = -0.0;
  const Resolved at_zero = run_kernel(resolve_class, tied, zeros.data(), 16);
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(at_zero.k_opt[j], 1u) << "worker " << j;
    EXPECT_EQ(std::signbit(at_zero.utility[j]), j % 2 == 1) << "worker " << j;
  }
}

// The tableau holds the design table's per-k responses verbatim, the
// free-ride column exists exactly when the class has omega > 0, and a
// table built for another m is refused rather than read past its end.
TEST(KSweepTest, TableauMustMatchItsTable) {
  for (const double omega : {0.0, 0.3}) {
    SubproblemSpec spec;
    spec.psi = effort::QuadraticEffort(-1.1, 8.5, 0.5);
    spec.incentives = {1.4, omega};
    spec.mu = 2.0;
    spec.intervals = 12;
    const DesignTable table = build_design_table(spec);
    ScratchArena arena;
    const ClassTableau tableau = build_class_tableau(spec, table, arena);
    ASSERT_EQ(tableau.m, spec.intervals);
    EXPECT_TRUE(same_bits(tableau.mu, spec.mu));
    const double delta = spec.delta();
    for (std::size_t k = 1; k <= tableau.m; ++k) {
      const BestResponse& response = table.responses[k - 1];
      EXPECT_TRUE(same_bits(tableau.feedback[k - 1], response.feedback))
          << "k " << k;
      EXPECT_TRUE(same_bits(tableau.pay[k - 1], response.compensation))
          << "k " << k;
      EXPECT_TRUE(same_bits(tableau.ub_feedback[k - 1],
                            spec.psi(delta * static_cast<double>(k))))
          << "k " << k;
    }
    EXPECT_EQ(tableau.has_free_ride, omega > 0.0);
    if (tableau.has_free_ride) {
      EXPECT_GE(tableau.free_ride_feedback, spec.psi(0.0));
    } else {
      EXPECT_EQ(tableau.free_ride_feedback, 0.0);
    }

    SubproblemSpec finer = spec;
    finer.intervals = spec.intervals + 1;
    EXPECT_THROW(build_class_tableau(finer, table, arena), Error);
  }
}

}  // namespace
}  // namespace ccd::contract
