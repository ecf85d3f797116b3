// Fault-policy and chaos tests for the pipeline's recovery boundaries.
//
// The chaos tests arm the deterministic fault injector at 1-20% across all
// injection sites and assert exact invariants: lenient runs never throw,
// no non-finite value reaches an outcome, totals equal the sum of
// per-worker values, the quarantined/excluded/solved partition covers the
// fleet exactly, and the health counters reconcile with per-worker flags.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/generator.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace ccd::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// RAII guard: every test leaves the process-wide injector disarmed.
struct InjectorGuard {
  ~InjectorGuard() { util::FaultInjector::instance().disable(); }
};

void arm_injector(double rate, std::uint64_t seed) {
  util::FaultInjectorConfig config;
  config.enabled = true;
  config.seed = seed;
  config.rate = rate;
  util::FaultInjector::instance().configure(config);
}

/// The invariants every completed run must satisfy, clean or degraded.
void expect_invariants(const PipelineResult& r, std::size_t n) {
  ASSERT_EQ(r.workers.size(), n);
  std::size_t quarantined = 0;
  std::size_t excluded = 0;
  std::size_t fallback = 0;
  double utility = 0.0;
  double compensation = 0.0;
  for (const WorkerOutcome& w : r.workers) {
    EXPECT_TRUE(std::isfinite(w.requester_utility)) << "worker " << w.id;
    EXPECT_TRUE(std::isfinite(w.compensation)) << "worker " << w.id;
    EXPECT_TRUE(std::isfinite(w.effort)) << "worker " << w.id;
    EXPECT_TRUE(std::isfinite(w.feedback)) << "worker " << w.id;
    EXPECT_TRUE(std::isfinite(w.weight)) << "worker " << w.id;
    // The partition is disjoint: a worker is quarantined (stage failure),
    // excluded (designer's choice), or solved — never two at once.
    EXPECT_FALSE(w.quarantined && w.excluded) << "worker " << w.id;
    if (w.quarantined) {
      ++quarantined;
      EXPECT_EQ(w.compensation, 0.0) << "worker " << w.id;
      EXPECT_EQ(w.requester_utility, 0.0) << "worker " << w.id;
    }
    if (w.excluded) ++excluded;
    if (w.fallback) ++fallback;
    utility += w.requester_utility;
    compensation += w.compensation;
  }
  // Counters reconcile exactly with per-worker flags.
  EXPECT_EQ(r.health.quarantined_workers, quarantined);
  EXPECT_EQ(r.health.fallback_workers, fallback);
  EXPECT_EQ(r.excluded_workers, excluded);
  // quarantined + excluded + solved == N by disjointness; spell it out.
  const std::size_t solved = n - quarantined - excluded;
  EXPECT_EQ(quarantined + excluded + solved, n);
  // Totals are the sum of the per-worker shares.
  EXPECT_TRUE(std::isfinite(r.total_requester_utility));
  EXPECT_TRUE(std::isfinite(r.total_compensation));
  const double tol = 1e-6 * (1.0 + std::abs(r.total_requester_utility));
  EXPECT_NEAR(r.total_requester_utility, utility, tol);
  EXPECT_NEAR(r.total_compensation, compensation,
              1e-6 * (1.0 + r.total_compensation));
}

/// Doubles compared by bit pattern.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const PipelineResult& a, const PipelineResult& b) {
  ASSERT_EQ(a.workers.size(), b.workers.size());
  EXPECT_EQ(bits(a.total_requester_utility), bits(b.total_requester_utility));
  EXPECT_EQ(bits(a.total_compensation), bits(b.total_compensation));
  EXPECT_EQ(a.excluded_workers, b.excluded_workers);
  EXPECT_EQ(a.health.quarantined_workers, b.health.quarantined_workers);
  EXPECT_EQ(a.health.fallback_workers, b.health.fallback_workers);
  ASSERT_EQ(a.health.events.size(), b.health.events.size());
  for (std::size_t i = 0; i < a.health.events.size(); ++i) {
    EXPECT_EQ(a.health.events[i].to_string(), b.health.events[i].to_string());
  }
  EXPECT_EQ(a.design_cache.lookups, b.design_cache.lookups);
  EXPECT_EQ(a.design_cache.hits, b.design_cache.hits);
  EXPECT_EQ(a.design_cache.misses, b.design_cache.misses);
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_EQ(bits(a.workers[i].compensation), bits(b.workers[i].compensation))
        << "worker " << i;
    EXPECT_EQ(bits(a.workers[i].requester_utility),
              bits(b.workers[i].requester_utility))
        << "worker " << i;
    EXPECT_EQ(a.workers[i].quarantined, b.workers[i].quarantined)
        << "worker " << i;
    EXPECT_EQ(a.workers[i].fallback, b.workers[i].fallback) << "worker " << i;
    EXPECT_EQ(a.workers[i].excluded, b.workers[i].excluded) << "worker " << i;
  }
}

class PipelineFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new data::ReviewTrace(
        data::generate_trace(data::GeneratorParams::small()));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static data::ReviewTrace* trace_;
};

data::ReviewTrace* PipelineFaultTest::trace_ = nullptr;

TEST_F(PipelineFaultTest, PoliciesAgreeBitwiseOnCleanTrace) {
  PipelineConfig config;
  config.faults = FaultPolicy::fail_fast();
  const PipelineResult strict = run_pipeline(*trace_, config);
  EXPECT_FALSE(strict.health.degraded());

  config.faults = FaultPolicy::quarantine();
  const PipelineResult lenient = run_pipeline(*trace_, config);
  EXPECT_FALSE(lenient.health.degraded());
  EXPECT_TRUE(lenient.health.sanitized);
  EXPECT_TRUE(lenient.health.sanitize.clean());
  expect_identical(strict, lenient);

  config.faults = FaultPolicy::fallback();
  const PipelineResult fb = run_pipeline(*trace_, config);
  EXPECT_FALSE(fb.health.degraded());
  expect_identical(strict, fb);
}

TEST_F(PipelineFaultTest, HealthReportOnCleanRunSaysClean) {
  PipelineConfig config;
  const PipelineResult r = run_pipeline(*trace_, config);
  EXPECT_FALSE(r.health.degraded());
  EXPECT_EQ(r.health.to_string(), "health: clean");
  expect_invariants(r, trace_->workers().size());
}

/// Copy of the shared trace with one review score corrupted to NaN (bypasses
/// validate(), as an in-memory producer bug would).
data::ReviewTrace corrupt_copy(const data::ReviewTrace& src,
                               data::ReviewId victim) {
  data::ReviewTrace out;
  for (const data::Worker& w : src.workers()) out.add_worker(w);
  for (const data::Product& p : src.products()) out.add_product(p);
  for (const data::Review& r : src.reviews()) {
    data::Review copy = r;
    if (copy.id == victim) copy.score = kNaN;
    out.add_review(copy);
  }
  out.build_indexes();
  return out;
}

TEST_F(PipelineFaultTest, FailFastThrowsOnNaNScoreWithContext) {
  const data::ReviewTrace corrupt = corrupt_copy(*trace_, 5);
  PipelineConfig config;  // default: all stages fail-fast
  try {
    run_pipeline(corrupt, config);
    FAIL() << "should have thrown";
  } catch (const DataError& e) {
    EXPECT_EQ(e.context().stage, "sanitize");
    EXPECT_EQ(e.context().worker,
              static_cast<std::int64_t>(corrupt.review(5).worker));
    EXPECT_NE(std::string(e.what()).find("non-finite score"),
              std::string::npos)
        << e.what();
  }
}

// The batch solve runs the "contract.design" site once per positive-weight
// subproblem: armed alone at rate 1.0, it must fail a fail-fast run.
TEST_F(PipelineFaultTest, FailFastThrowsOnInjectedDesignFault) {
  InjectorGuard guard;
  util::FaultInjectorConfig chaos;
  chaos.enabled = true;
  chaos.seed = 3;
  chaos.site_rates["contract.design"] = 1.0;
  util::FaultInjector::instance().configure(chaos);
  PipelineConfig config;  // default: all stages fail-fast
  try {
    run_pipeline(*trace_, config);
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    EXPECT_EQ(e.context().stage, "solve");
    EXPECT_NE(std::string(e.what()).find("contract.design"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GT(util::FaultInjector::instance().injected("contract.design"), 0u);
  EXPECT_EQ(util::FaultInjector::instance().total_injected(),
            util::FaultInjector::instance().injected("contract.design"));
}

// The lenient solve hands the batch a per-spec error sink, so the same
// site armed alone at rate 1.0 quarantines every subproblem that reaches
// it, one solve event each, instead of failing the run. Under the
// exclude-malicious strategy the suspected subproblems are designed at
// weight 0: they never reach the site and keep their zero-contract design.
TEST_F(PipelineFaultTest, QuarantineIsolatesEveryInjectedDesignFault) {
  InjectorGuard guard;
  util::FaultInjectorConfig chaos;
  chaos.enabled = true;
  chaos.seed = 3;
  chaos.site_rates["contract.design"] = 1.0;
  util::FaultInjector::instance().configure(chaos);
  PipelineConfig config;
  config.faults = FaultPolicy::quarantine();
  config.strategy = PricingStrategy::kExcludeMalicious;
  const PipelineResult r = run_pipeline(*trace_, config);
  expect_invariants(r, trace_->workers().size());

  std::size_t quarantined = 0;
  std::size_t spared = 0;
  for (const SubproblemOutcome& sub : r.subproblems) {
    EXPECT_FALSE(sub.fallback);
    if (sub.quarantined) {
      ++quarantined;
    } else {
      EXPECT_TRUE(sub.design.excluded);
      EXPECT_TRUE(sub.design.contract.is_zero());
      ++spared;
    }
  }
  ASSERT_GT(quarantined, 0u);
  EXPECT_GT(spared, 0u);
  EXPECT_EQ(util::FaultInjector::instance().injected("contract.design"),
            quarantined);
  std::size_t solve_events = 0;
  for (const DegradationEvent& ev : r.health.events) {
    if (ev.stage != PipelineStage::kSolve) continue;
    ++solve_events;
    EXPECT_EQ(ev.action, StageMode::kQuarantine);
    EXPECT_NE(ev.detail.find("contract.design"), std::string::npos)
        << ev.detail;
  }
  EXPECT_EQ(solve_events, quarantined);
}

TEST_F(PipelineFaultTest, QuarantinePolicyAbsorbsNaNScore) {
  const data::ReviewTrace corrupt = corrupt_copy(*trace_, 5);
  PipelineConfig config;
  config.faults = FaultPolicy::quarantine();
  const PipelineResult r = run_pipeline(corrupt, config);
  EXPECT_TRUE(r.health.sanitized);
  EXPECT_EQ(r.health.sanitize.non_finite_score, 1u);
  EXPECT_TRUE(r.health.degraded());
  expect_invariants(r, corrupt.workers().size());
}

// ---- Chaos: N = 1000 workers, faults injected at 1%-20% -------------------

data::GeneratorParams chaos_params() {
  data::GeneratorParams params;
  params.seed = 2026;
  params.n_honest = 940;
  params.n_ncm = 40;
  params.community_sizes = {2, 3, 4, 5, 6};  // 20 CM workers -> N = 1000
  params.n_products = 1500;
  return params;
}

class PipelineChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new data::ReviewTrace(data::generate_trace(chaos_params()));
    ASSERT_EQ(trace_->workers().size(), 1000u);
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static data::ReviewTrace* trace_;
};

data::ReviewTrace* PipelineChaosTest::trace_ = nullptr;

TEST_F(PipelineChaosTest, QuarantinePolicySurvivesFaultSweep) {
  InjectorGuard guard;
  PipelineConfig config;
  config.faults = FaultPolicy::quarantine();
  for (const double rate : {0.01, 0.05, 0.2}) {
    arm_injector(rate, /*seed=*/7);
    PipelineResult r;
    ASSERT_NO_THROW(r = run_pipeline(*trace_, config)) << "rate " << rate;
    expect_invariants(r, 1000);
    if (util::FaultInjector::instance().total_injected() > 0) {
      EXPECT_TRUE(r.health.degraded()) << "rate " << rate;
    }
    // Quarantine policy never reroutes to the baseline.
    EXPECT_EQ(r.health.fallback_workers, 0u);
  }
  // At 20% the injector must actually have been exercising the sites.
  EXPECT_GT(util::FaultInjector::instance().total_injected(), 0u);
}

TEST_F(PipelineChaosTest, FallbackPolicySurvivesFaultSweep) {
  InjectorGuard guard;
  PipelineConfig config;
  config.faults = FaultPolicy::fallback();
  for (const double rate : {0.01, 0.05, 0.2}) {
    arm_injector(rate, /*seed=*/11);
    PipelineResult r;
    ASSERT_NO_THROW(r = run_pipeline(*trace_, config)) << "rate " << rate;
    expect_invariants(r, 1000);
    if (r.health.degraded()) {
      // Every solve-stage failure was absorbed as a fallback (the baseline
      // itself has no injection site, so double faults cannot occur).
      for (const DegradationEvent& e : r.health.events) {
        if (e.stage == PipelineStage::kSolve) {
          EXPECT_EQ(e.action, StageMode::kFallback);
        }
      }
    }
  }
}

TEST_F(PipelineChaosTest, SameSeedSameFaultsSameResult) {
  InjectorGuard guard;
  PipelineConfig config;
  config.faults = FaultPolicy::quarantine();
  arm_injector(0.05, /*seed=*/13);
  const PipelineResult a = run_pipeline(*trace_, config);
  const std::size_t fired_a = util::FaultInjector::instance().total_injected();
  arm_injector(0.05, /*seed=*/13);  // reconfigure: counters reset
  const PipelineResult b = run_pipeline(*trace_, config);
  const std::size_t fired_b = util::FaultInjector::instance().total_injected();
  EXPECT_EQ(fired_a, fired_b);
  expect_identical(a, b);
}

TEST_F(PipelineChaosTest, RateZeroIsBitwiseIdenticalToDisabled) {
  InjectorGuard guard;
  PipelineConfig config;
  config.faults = FaultPolicy::quarantine();
  util::FaultInjector::instance().disable();
  const PipelineResult off = run_pipeline(*trace_, config);
  arm_injector(0.0, /*seed=*/99);
  const PipelineResult armed = run_pipeline(*trace_, config);
  EXPECT_EQ(util::FaultInjector::instance().total_injected(), 0u);
  EXPECT_FALSE(armed.health.degraded());
  expect_identical(off, armed);
}

// The lenient solve runs one batch with an error sink, so under faults at
// every site a quarantine or fallback run designs the same fleet, with the
// same events and the same cache counters, on one thread and on four.
TEST_F(PipelineChaosTest, LenientSolveIsThreadCountInvariantUnderFaults) {
  InjectorGuard guard;
  for (const FaultPolicy& faults :
       {FaultPolicy::quarantine(), FaultPolicy::fallback()}) {
    const std::string where = faults.solve == StageMode::kQuarantine
                                  ? "quarantine"
                                  : "fallback";
    PipelineConfig config;
    config.faults = faults;
    config.threads = 1;
    arm_injector(0.05, /*seed=*/7);
    const PipelineResult one = run_pipeline(*trace_, config);
    const std::size_t fired_one =
        util::FaultInjector::instance().total_injected();
    config.threads = 4;
    arm_injector(0.05, /*seed=*/7);  // reconfigure: counters reset
    const PipelineResult four = run_pipeline(*trace_, config);
    EXPECT_EQ(util::FaultInjector::instance().total_injected(), fired_one)
        << where;
    ASSERT_GT(fired_one, 0u) << where;
    EXPECT_TRUE(one.health.degraded()) << where;
    EXPECT_GT(one.design_cache.lookups, 0u) << where;
    expect_invariants(one, 1000);
    expect_identical(one, four);
  }
}

// A community whose own fit throws inside polyfit keeps the CM class fit,
// as a fallback or beside its quarantine: nothing of the half-built fit
// reaches its spec.
TEST(CommunityFitFaultTest, FailedCommunityFitKeepsTheCmClassFit) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  InjectorGuard guard;
  std::size_t community_events = 0;
  for (const FaultPolicy& faults :
       {FaultPolicy::quarantine(), FaultPolicy::fallback()}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      util::FaultInjectorConfig chaos;
      chaos.enabled = true;
      chaos.seed = seed;
      chaos.site_rates["math.polyfit"] = 0.3;
      util::FaultInjector::instance().configure(chaos);
      PipelineConfig config;
      config.faults = faults;
      config.min_community_fit_samples = 3;
      const PipelineResult r = run_pipeline(trace, config);
      for (const DegradationEvent& ev : r.health.events) {
        if (ev.stage != PipelineStage::kFit || ev.subproblem < 0) continue;
        ++community_events;
        const effort::QuadraticEffort& psi =
            r.subproblems[static_cast<std::size_t>(ev.subproblem)].spec.psi;
        const effort::QuadraticEffort& cm = r.class_fits.cm.model;
        const std::string where =
            "seed " + std::to_string(seed) + ", " + ev.to_string();
        EXPECT_EQ(psi.r2(), cm.r2()) << where;
        EXPECT_EQ(psi.r1(), cm.r1()) << where;
        EXPECT_EQ(psi.r0(), cm.r0()) << where;
      }
    }
  }
  EXPECT_GT(community_events, 0u);
}

}  // namespace
}  // namespace ccd::core
