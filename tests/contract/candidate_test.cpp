#include "contract/candidate.hpp"

#include "contract/bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace ccd::contract {
namespace {

const effort::QuadraticEffort kPsi(-1.0, 8.0, 2.0);
constexpr double kBeta = 1.0;

TEST(CandidateTest, SlopesLandInCaseThreeWindow) {
  const WorkerIncentives inc{kBeta, 0.0};
  const std::size_t m = 10;
  const double delta = kPsi.usable_domain() / m;
  CandidateBuildInfo info;
  build_candidate(kPsi, delta, m, m, inc, &info);
  ASSERT_EQ(info.raw_slopes.size(), m);
  for (std::size_t l = 1; l <= m; ++l) {
    const double lo = kBeta / kPsi.derivative(delta * (l - 1)) - inc.omega;
    const double hi = kBeta / kPsi.derivative(delta * l) - inc.omega;
    EXPECT_GT(info.raw_slopes[l - 1], lo) << "l=" << l;
    EXPECT_LT(info.raw_slopes[l - 1], hi) << "l=" << l;
  }
}

TEST(CandidateTest, SlopesAreIncreasingTowardTarget) {
  // The Eq. 39 recurrence produces strictly increasing slopes (the contract
  // is convex up to k), which is what makes higher intervals preferable.
  const WorkerIncentives inc{kBeta, 0.0};
  const std::size_t m = 12;
  const double delta = kPsi.usable_domain() / m;
  CandidateBuildInfo info;
  build_candidate(kPsi, delta, m, m, inc, &info);
  for (std::size_t i = 1; i < info.raw_slopes.size(); ++i) {
    EXPECT_GT(info.raw_slopes[i], info.raw_slopes[i - 1]);
  }
}

TEST(CandidateTest, FlatBeyondTargetInterval) {
  const WorkerIncentives inc{kBeta, 0.0};
  const std::size_t m = 10;
  const std::size_t k = 4;
  const double delta = kPsi.usable_domain() / m;
  const Contract c = build_candidate(kPsi, delta, m, k, inc);
  for (std::size_t l = k; l <= m; ++l) {
    EXPECT_DOUBLE_EQ(c.payment(l), c.payment(k));
  }
}

TEST(CandidateTest, PaymentsStartAtZero) {
  const WorkerIncentives inc{kBeta, 0.0};
  const double delta = kPsi.usable_domain() / 8;
  const Contract c = build_candidate(kPsi, delta, 8, 5, inc);
  EXPECT_DOUBLE_EQ(c.payment(0), 0.0);
}

TEST(CandidateTest, BestResponseLandsInTargetInterval) {
  // The defining property (Eq. 36): under candidate xi^(k) the worker's
  // optimal effort falls in [(k-1)delta, k delta).
  const WorkerIncentives inc{kBeta, 0.0};
  for (const std::size_t m : {5ul, 10ul, 20ul}) {
    const double delta = kPsi.usable_domain() / static_cast<double>(m);
    for (std::size_t k = 1; k <= m; ++k) {
      const Contract c = build_candidate(kPsi, delta, m, k, inc);
      const BestResponse br = best_response(c, kPsi, inc);
      EXPECT_EQ(br.interval, k) << "m=" << m << " k=" << k;
    }
  }
}

TEST(CandidateTest, BestResponseInTargetIntervalForMalicious) {
  // With omega > 0 small enough that contract slopes stay positive, the
  // same interval-targeting property holds.
  const WorkerIncentives inc{kBeta, 0.1};
  const std::size_t m = 10;
  const double delta = kPsi.usable_domain() / m;
  for (std::size_t k = 2; k <= m; ++k) {
    const Contract c = build_candidate(kPsi, delta, m, k, inc);
    const BestResponse br = best_response(c, kPsi, inc);
    EXPECT_EQ(br.interval, k) << "k=" << k;
  }
}

TEST(CandidateTest, LargeOmegaClampsSlopesAtZero) {
  // A strongly self-motivated worker needs no pay: raw slopes go negative
  // and applied slopes clamp to zero, keeping the contract monotone.
  const WorkerIncentives inc{kBeta, 2.0};
  const std::size_t m = 8;
  const double delta = kPsi.usable_domain() / m;
  CandidateBuildInfo info;
  const Contract c = build_candidate(kPsi, delta, m, m, inc, &info);
  bool any_clamped = false;
  for (std::size_t i = 0; i < info.raw_slopes.size(); ++i) {
    EXPECT_GE(info.applied_slopes[i], 0.0);
    if (info.raw_slopes[i] < 0.0) {
      EXPECT_DOUBLE_EQ(info.applied_slopes[i], 0.0);
      any_clamped = true;
    }
  }
  EXPECT_TRUE(any_clamped);
  // Contract is still valid (monotone non-negative): pay 0 everywhere here.
  EXPECT_GE(c.max_payment(), 0.0);
}

TEST(CandidateTest, EpsilonsMatchEq40OnFineGrids) {
  // On a fine grid the Eq. 40 value is below the window cap and is used
  // verbatim.
  const WorkerIncentives inc{kBeta, 0.0};
  const std::size_t m = 64;
  const double delta = kPsi.usable_domain() / m;
  CandidateBuildInfo info;
  build_candidate(kPsi, delta, m, m, inc, &info);
  const double r2 = kPsi.r2();
  for (std::size_t l = 1; l <= m; ++l) {
    const double s_prev = kPsi.derivative(delta * (l - 1));
    const double s_here = kPsi.derivative(delta * l);
    const double eq40 =
        4.0 * kBeta * r2 * r2 * delta * delta / (s_prev * s_prev * s_here);
    EXPECT_LE(info.epsilons[l - 1], eq40 + 1e-12);
    EXPECT_GT(info.epsilons[l - 1], 0.0);
  }
}

TEST(CandidateTest, CoarseGridEpsilonStaysInsideWindow) {
  // The cap keeps slopes strictly inside the Case-III window even at m = 1,
  // where Eq. 40's raw epsilon would overshoot to the Case-II edge.
  const WorkerIncentives inc{kBeta, 0.0};
  const double delta = kPsi.usable_domain();  // one huge interval
  CandidateBuildInfo info;
  build_candidate(kPsi, delta, 1, 1, inc, &info);
  const double left = kBeta / kPsi.derivative(0.0);
  const double right = kBeta / kPsi.derivative(delta);
  EXPECT_GT(info.raw_slopes[0], left);
  EXPECT_LT(info.raw_slopes[0], left + 0.1 * (right - left));
}

TEST(CandidateTest, RawEq40EpsilonBreaksLemma42OnCoarseGrids) {
  // Documents the deviation: with the paper's raw Eq. 40 epsilon, a one-
  // interval grid produces slopes at the Case-II edge and pay far above
  // Lemma 4.2's cap; the capped construction stays below it.
  const WorkerIncentives inc{kBeta, 0.0};
  const double delta = kPsi.usable_domain();
  const Contract raw =
      build_candidate(kPsi, delta, 1, 1, inc, nullptr, /*cap_epsilon=*/false);
  const Contract capped = build_candidate(kPsi, delta, 1, 1, inc);
  const double cap = lemma42_compensation_upper(kPsi, kBeta, delta, 1);
  const BestResponse raw_br = best_response(raw, kPsi, inc);
  const BestResponse capped_br = best_response(capped, kPsi, inc);
  EXPECT_GT(raw_br.compensation, cap);
  EXPECT_LE(capped_br.compensation, cap + 1e-9);
}

TEST(CandidateTest, EpsilonVariantsConvergeOnFineGrids) {
  // Both constructions approach the same minimal-pay contract as the grid
  // densifies (epsilon -> 0): the relative gap in induced pay shrinks
  // monotonically and is below 1% by m = 64.
  const WorkerIncentives inc{kBeta, 0.0};
  double prev_gap = 1e300;
  for (const std::size_t m : {4ul, 16ul, 64ul}) {
    const double delta = kPsi.usable_domain() / static_cast<double>(m);
    const Contract raw = build_candidate(kPsi, delta, m, m, inc, nullptr,
                                         /*cap_epsilon=*/false);
    const Contract capped = build_candidate(kPsi, delta, m, m, inc);
    const double raw_pay = best_response(raw, kPsi, inc).compensation;
    const double capped_pay = best_response(capped, kPsi, inc).compensation;
    const double gap = (raw_pay - capped_pay) / capped_pay;
    EXPECT_GE(gap, -1e-9) << "m=" << m;  // raw always pays at least as much
    EXPECT_LT(gap, prev_gap) << "m=" << m;
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.01);
}

TEST(CandidateTest, RejectsGridPastPeak) {
  const WorkerIncentives inc{kBeta, 0.0};
  // delta * m = 4.4 > y_peak = 4.
  EXPECT_THROW(build_candidate(kPsi, 0.55, 8, 4, inc), ContractError);
}

TEST(CandidateTest, ValidatesParameters) {
  const WorkerIncentives inc{kBeta, 0.0};
  EXPECT_THROW(build_candidate(kPsi, 0.0, 5, 3, inc), Error);   // delta
  EXPECT_THROW(build_candidate(kPsi, 0.1, 0, 1, inc), Error);   // m = 0
  EXPECT_THROW(build_candidate(kPsi, 0.1, 5, 0, inc), Error);   // k = 0
  EXPECT_THROW(build_candidate(kPsi, 0.1, 5, 6, inc), Error);   // k > m
  EXPECT_THROW(build_candidate(kPsi, 0.1, 5, 3, WorkerIncentives{0.0, 0.0}),
               Error);
}

TEST(CandidateTest, DegenerateWindowKeepsEpsilonPositive) {
  // With nearly-flat curvature (|r2| tiny) adjacent psi' values agree to
  // the last bit, so the capped Case-III window collapses: the former
  // epsilon cap min(eq40, 0.05 * width) went non-positive (or numerically
  // inert, base + eps == base), silently dropping Eq. 36's strict
  // preference. Such intervals must now be flagged and take a positive
  // floor that actually moves the slope.
  const effort::QuadraticEffort psi(-1e-18, 8.0, 2.0);
  const WorkerIncentives inc{1.0, 0.0};
  const double delta = 0.1;
  const std::size_t m = 4;
  CandidateBuildInfo info;
  const Contract c = build_candidate(psi, delta, m, m, inc, &info);
  const auto flagged = [](const CandidateBuildInfo& built) {
    return std::any_of(built.degenerate_window.begin(),
                       built.degenerate_window.end(),
                       [](std::uint8_t flag) { return flag != 0; });
  };
  EXPECT_TRUE(flagged(info));
  ASSERT_EQ(info.epsilons.size(), m);
  ASSERT_EQ(info.raw_slopes.size(), m);
  for (std::size_t l = 0; l < m; ++l) {
    // Every epsilon is strictly positive and numerically *effective*: the
    // slope actually sits above the indifference base (which the former
    // min() could leave exactly at base, eps == 0).
    EXPECT_GT(info.epsilons[l], 0.0) << "interval " << l + 1;
    EXPECT_GT(info.raw_slopes[l], info.raw_slopes[l] - info.epsilons[l])
        << "interval " << l + 1;
  }
  // The contract is still well-formed (monotone payments on the grid).
  for (std::size_t l = 1; l <= m; ++l) {
    EXPECT_GT(c.payment(l), c.payment(l - 1)) << "knot " << l;
  }

  // A healthy grid never trips the flag.
  CandidateBuildInfo healthy;
  build_candidate(kPsi, kPsi.usable_domain() / 8.0, 8, 8, inc, &healthy);
  EXPECT_FALSE(flagged(healthy));
}

TEST(CandidateTest, DifferentPsiShapes) {
  // The construction must work for any feasible quadratic.
  const WorkerIncentives inc{0.7, 0.0};
  for (const auto& [r2, r1, r0] :
       {std::tuple{-0.5, 4.0, 0.0}, std::tuple{-2.0, 12.0, 5.0},
        std::tuple{-0.1, 1.0, 0.5}}) {
    const effort::QuadraticEffort psi(r2, r1, r0);
    const std::size_t m = 7;
    const double delta = psi.usable_domain() / m;
    for (std::size_t k = 1; k <= m; ++k) {
      const Contract c = build_candidate(psi, delta, m, k, inc);
      const BestResponse br = best_response(c, psi, inc);
      EXPECT_EQ(br.interval, k)
          << "psi(" << r2 << "," << r1 << "," << r0 << ") k=" << k;
    }
  }
}

}  // namespace
}  // namespace ccd::contract
