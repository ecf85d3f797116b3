// sweep_best_responses, through build_design_table, against the
// per-candidate k-sweep it replaced: build every candidate ξ^(k) as a
// Contract and answer it with best_response. That loop is kept below as
// the bitwise reference: every table must match it in every BestResponse
// field, bit for bit, or throw the same ccd::Error type and message. This
// file is compiled with -ffp-contract=off (tests/CMakeLists.txt), as
// ccd_contract is, so the reference's knots round the same way on FMA
// targets.
#include "contract/worker_response.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "contract/candidate.hpp"
#include "contract/designer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ccd::contract {
namespace {

// ---------------------------------------------------------------------------
// The reference: one Contract and one best_response per candidate.

struct ReferenceSweep {
  std::vector<BestResponse> responses;
  bool degenerate_window = false;
};

ReferenceSweep reference_sweep(const SubproblemSpec& spec) {
  spec.validate();
  const double delta = spec.delta();
  const std::size_t m = spec.intervals;
  CandidateRecurrence rec;
  candidate_recurrence(spec.psi, delta, m, m, spec.incentives,
                       /*cap_epsilon=*/true, rec);
  std::vector<double> knots(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    knots[l] = spec.psi(delta * static_cast<double>(l));
  }
  ReferenceSweep out;
  out.degenerate_window =
      std::find(rec.degenerate_window.begin(), rec.degenerate_window.end(),
                1) != rec.degenerate_window.end();
  std::vector<double> payments(m + 1);
  for (std::size_t k = 1; k <= m; ++k) {
    std::copy(rec.pay_prefix.begin(), rec.pay_prefix.begin() + k + 1,
              payments.begin());
    std::fill(payments.begin() + k + 1, payments.end(), rec.pay_prefix[k]);
    const Contract candidate(delta, knots, payments);
    out.responses.push_back(
        best_response(candidate, spec.psi, spec.incentives));
  }
  return out;
}

/// best_response on each candidate of a prefix: the reference loop for
/// hand-made prefixes.
std::vector<BestResponse> per_candidate(const effort::QuadraticEffort& psi,
                                        const WorkerIncentives& inc,
                                        double delta,
                                        const std::vector<double>& knots,
                                        const std::vector<double>& prefix) {
  const std::size_t m = knots.size() - 1;
  std::vector<BestResponse> responses;
  std::vector<double> payments(m + 1);
  for (std::size_t k = 1; k <= m; ++k) {
    std::copy(prefix.begin(), prefix.begin() + k + 1, payments.begin());
    std::fill(payments.begin() + k + 1, payments.end(), prefix[k]);
    responses.push_back(
        best_response(Contract(delta, knots, payments), psi, inc));
  }
  return responses;
}

// ---------------------------------------------------------------------------
// Outcomes compared by bit pattern.

struct Outcome {
  std::vector<std::uint64_t> bits;  ///< per candidate: 4 doubles, interval
  std::string error;                ///< "<type>: <what()>" when it threw

  bool operator==(const Outcome&) const = default;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Outcome encode(const std::vector<BestResponse>& responses) {
  Outcome out;
  for (const BestResponse& r : responses) {
    out.bits.push_back(std::bit_cast<std::uint64_t>(r.effort));
    out.bits.push_back(std::bit_cast<std::uint64_t>(r.utility));
    out.bits.push_back(std::bit_cast<std::uint64_t>(r.feedback));
    out.bits.push_back(std::bit_cast<std::uint64_t>(r.compensation));
    out.bits.push_back(r.interval);
  }
  return out;
}

void PrintTo(const Outcome& o, std::ostream* os) {
  if (o.error.empty()) {
    *os << o.bits.size() / 5 << " responses";
  } else {
    *os << "threw '" << o.error << "'";
  }
}

template <typename F>
Outcome outcome_of(F&& responses) {
  try {
    return encode(responses());
  } catch (const Error& e) {
    Outcome out;
    out.error = std::string(typeid(e).name()) + ": " + e.what();
    return out;
  }
}

std::string describe(const SubproblemSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  os << "psi(" << spec.psi.r2() << ", " << spec.psi.r1() << ", "
     << spec.psi.r0() << ") beta " << spec.incentives.beta << " omega "
     << spec.incentives.omega << " m " << spec.intervals << " domain "
     << spec.effort_domain;
  return os.str();
}

std::string first_difference(const Outcome& got, const Outcome& want) {
  if (got.error != want.error) {
    return "sweep " + (got.error.empty() ? "returned" : "threw '" + got.error +
                                                            "'") +
           ", reference " +
           (want.error.empty() ? "returned" : "threw '" + want.error + "'");
  }
  for (std::size_t i = 0; i < want.bits.size(); ++i) {
    if (got.bits[i] != want.bits[i]) {
      static const char* const kField[] = {"effort", "utility", "feedback",
                                           "compensation", "interval"};
      std::ostringstream os;
      os << "k " << i / 5 + 1 << " " << kField[i % 5] << ": sweep 0x"
         << std::hex << got.bits[i] << ", reference 0x" << want.bits[i];
      return os.str();
    }
  }
  return "response count differs";
}

// ---------------------------------------------------------------------------
// Seeded specs.

double log_uniform(util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/// Mostly the interval counts the paper's figures use, else anything small.
std::size_t draw_intervals(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.15) return 1;
  if (u < 0.30) return 2;
  if (u < 0.60) return 20;
  if (u < 0.70) return 128;
  return static_cast<std::size_t>(rng.uniform_int(3, 64));
}

/// An explicit domain: default, inside, or within 1e-15..0.1 of y_peak.
double draw_domain(util::Rng& rng, const effort::QuadraticEffort& psi) {
  const double u = rng.uniform();
  if (u < 0.4) return -1.0;
  if (u < 0.7) return psi.y_peak() * rng.uniform(0.05, 0.999);
  return psi.y_peak() * (1.0 - std::pow(10.0, -rng.uniform(1.0, 15.0)));
}

/// Curves and incentives of the scale ingest sessions fit.
SubproblemSpec ordinary_spec(util::Rng& rng) {
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(-rng.uniform(0.3, 3.0),
                                     rng.uniform(2.0, 12.0),
                                     rng.uniform(0.0, 5.0));
  spec.incentives.beta = rng.uniform(0.3, 3.0);
  spec.incentives.omega = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.05, 2.0);
  spec.intervals = draw_intervals(rng);
  spec.effort_domain = rng.bernoulli(0.3) ? draw_domain(rng, spec.psi) : -1.0;
  return spec;
}

/// Effort and feedback scales 1e-6..1e6 apart, offsets up to 1e9, beta and
/// omega over 1e-4..1e4: flat curves whose knots round together, windows
/// that collapse, and free riders that work past every knot.
SubproblemSpec extreme_spec(util::Rng& rng) {
  const double y_scale = log_uniform(rng, 1e-6, 1e6);
  const double q_scale = log_uniform(rng, 1e-6, 1e6);
  SubproblemSpec spec;
  const double r0 = rng.bernoulli(0.3)   ? 0.0
                    : rng.bernoulli(0.5) ? q_scale * rng.uniform(0.0, 3.0)
                                         : log_uniform(rng, 1.0, 1e9);
  spec.psi = effort::QuadraticEffort(
      -q_scale / (y_scale * y_scale) * log_uniform(rng, 0.01, 10.0),
      q_scale / y_scale * log_uniform(rng, 0.1, 10.0), r0);
  spec.incentives.beta = log_uniform(rng, 1e-4, 1e4);
  spec.incentives.omega =
      rng.bernoulli(0.4) ? 0.0 : log_uniform(rng, 1e-4, 1e4);
  spec.intervals = draw_intervals(rng);
  spec.effort_domain = draw_domain(rng, spec.psi);
  return spec;
}

/// What the seeded specs reached, so a shard proves it covered the paths
/// the kernel treats apart.
struct Coverage {
  std::size_t threw = 0;
  std::size_t degenerate = 0;
  std::size_t tail_best = 0;       ///< best effort past the target knot
  std::size_t flat_point_best = 0;  ///< ... at the flat tail's stationary point

  void count(const SubproblemSpec& spec, const ReferenceSweep& ref) {
    if (ref.degenerate_window) ++degenerate;
    const double delta = spec.delta();
    const double m_span = delta * static_cast<double>(spec.intervals);
    double y_flat = -1.0;
    if (spec.incentives.omega > 0.0) {
      y_flat = stationary_effort(spec.psi, spec.incentives, 0.0);
    }
    for (std::size_t k = 1; k <= ref.responses.size(); ++k) {
      const double y = ref.responses[k - 1].effort;
      if (y <= delta * static_cast<double>(k)) continue;
      ++tail_best;
      if (y == y_flat && y < m_span) ++flat_point_best;
    }
  }
};

void check_spec(const SubproblemSpec& spec, Coverage& coverage,
                std::size_t& mismatches, std::string& first) {
  ReferenceSweep ref;
  const Outcome want = outcome_of([&] {
    ref = reference_sweep(spec);
    return ref.responses;
  });
  const Outcome got =
      outcome_of([&] { return build_design_table(spec).responses; });
  if (want.error.empty()) {
    coverage.count(spec, ref);
  } else {
    ++coverage.threw;
  }
  if (got == want) return;
  if (mismatches++ == 0) {
    first = describe(spec) + ": " + first_difference(got, want);
  }
}

// ---------------------------------------------------------------------------

// 8,000 seeded specs (1,000 per shard: 400 of ordinary scale and 600
// extreme), m in {1, 2, 20, 128} or 3..64, omega = 0 and > 0, default and
// explicit domains up to (1 - 1e-15) y_peak. Every table must equal the
// reference bit for bit or throw its error.
class SweepShardTest : public ::testing::TestWithParam<int> {};

TEST_P(SweepShardTest, SeededSpecsMatchPerCandidateReferenceBitwise) {
  util::Rng rng(0x5'3ee9'0000ULL + static_cast<std::uint64_t>(GetParam()));
  Coverage ordinary;
  Coverage extreme;
  std::size_t mismatches = 0;
  std::string first;
  for (int i = 0; i < 400; ++i) {
    check_spec(ordinary_spec(rng), ordinary, mismatches, first);
  }
  for (int i = 0; i < 600; ++i) {
    check_spec(extreme_spec(rng), extreme, mismatches, first);
  }
  EXPECT_EQ(mismatches, 0u) << first;

  // Every shard reaches the flat tail's Case-III point, best responses past
  // the target knot, collapsed windows, and specs that throw.
  EXPECT_GT(ordinary.flat_point_best, 0u);
  EXPECT_GT(ordinary.tail_best, ordinary.flat_point_best);
  EXPECT_GT(extreme.flat_point_best, 0u);
  EXPECT_GT(extreme.degenerate, 0u);
  EXPECT_GT(extreme.threw, 0u);
  EXPECT_LT(extreme.threw, 300u);
}

INSTANTIATE_TEST_SUITE_P(Shards, SweepShardTest, ::testing::Range(0, 8));

// A prefix whose last payment overflows to +inf passes every Contract
// check, and best_response answers each candidate without throwing; but
// the full prefix then pays NaN at knot m - 1 (x_{m-1} * 1 + inf * 0)
// where ξ^(m-1) pays x_{m-1}. That candidate must still match.
TEST(SweepTest, InfiniteLastPaymentMatchesPerCandidateContracts) {
  const effort::QuadraticEffort psi(-1.0, 8.0, 2.0);
  const WorkerIncentives inc{1.0, 0.3};
  const std::size_t m = 6;
  const double delta = psi.usable_domain() / static_cast<double>(m);
  std::vector<double> knots(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    knots[l] = psi(delta * static_cast<double>(l));
  }
  std::vector<double> prefix = {0.0, 0.5, 1.2, 2.0, 3.1, 4.5, 0.0};
  prefix[m] = std::numeric_limits<double>::infinity();

  const Outcome want = encode(per_candidate(psi, inc, delta, knots, prefix));
  std::vector<BestResponse> got;
  sweep_best_responses(psi, inc, delta, knots, prefix, got);
  EXPECT_EQ(encode(got), want) << first_difference(encode(got), want);
}

// The recurrence's prefix with x_2 raised until piece 2's Case-III point
// sits one ulp below knot 2 while its feedback rounds above d_2. There the
// full prefix interpolates toward x_3, but ξ^(2) is already flat, and that
// point is candidate 2's best response: the sweep must price it with
// candidate 2's own payments.
TEST(SweepTest, CaseThreePointPastItsKnotIsPricedPerCandidate) {
  const effort::QuadraticEffort psi(-1.0289999999999999, 8.3699999999999992,
                                    1.0);
  const WorkerIncentives inc{1.0, 0.0};
  const std::size_t m = 4;
  const double delta = psi.usable_domain() / static_cast<double>(m);
  std::vector<double> knots(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    knots[l] = psi(delta * static_cast<double>(l));
  }
  const std::vector<double> prefix = {0.0, 0.86447872015097005,
                                      2.0488875602176084, 2.9107915829513757,
                                      3.9267218674097037};

  const double alpha = (prefix[2] - prefix[1]) / (knots[2] - knots[1]);
  ASSERT_EQ(classify_piece(psi, inc, alpha, 2, delta), SlopeCase::kInterior);
  const double y_star = stationary_effort(psi, inc, alpha);
  ASSERT_LT(y_star, delta * 2.0);
  ASSERT_GT(psi(y_star), knots[2]);

  const Outcome want =
      encode(per_candidate(psi, inc, delta, knots, prefix));
  std::vector<BestResponse> got;
  sweep_best_responses(psi, inc, delta, knots, prefix, got);
  EXPECT_TRUE(same_bits(got[1].effort, y_star));
  EXPECT_EQ(encode(got), want) << first_difference(encode(got), want);
}

// An infinite payment below the last knot makes ξ^(k)'s flat tail slope
// NaN, and best_response(ξ^(k)) throws; a NaN payment further on would
// fail a later contract, but ξ^(k)'s response fails first. A NaN payment
// before any infinite one fails its contract first.
TEST(SweepTest, ErrorsComeInCandidateOrder) {
  const effort::QuadraticEffort psi(-1.0, 8.0, 2.0);
  const WorkerIncentives inc{1.0, 0.0};
  const std::size_t m = 5;
  const double delta = psi.usable_domain() / static_cast<double>(m);
  std::vector<double> knots(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    knots[l] = psi(delta * static_cast<double>(l));
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> tied_knots = knots;
  tied_knots[3] = tied_knots[2];  // knots must strictly increase
  const struct {
    const std::vector<double>& knots;
    std::vector<double> prefix;
    bool throws;
  } cases[] = {
      {knots, {0.0, 0.5, inf, inf, nan, nan}, true},  // response of ξ^(2)
      {knots, {0.0, 0.5, nan, inf, inf, inf}, true},  // contract ξ^(2)
      {knots, {0.0, 0.5, 0.4, 1.0, 2.0, 3.0}, true},  // decreasing: ξ^(2)
      {knots, {0.0, 0.5, 1.0, 2.0, 3.0, inf}, false},
      {tied_knots, {0.0, 0.5, inf, inf, nan, nan}, true},  // contract ξ^(1)
  };
  for (const auto& c : cases) {
    const Outcome want = outcome_of(
        [&] { return per_candidate(psi, inc, delta, c.knots, c.prefix); });
    const Outcome got = outcome_of([&] {
      std::vector<BestResponse> responses;
      sweep_best_responses(psi, inc, delta, c.knots, c.prefix, responses);
      return responses;
    });
    EXPECT_EQ(!want.error.empty(), c.throws) << want.error;
    EXPECT_EQ(got, want) << first_difference(got, want);
  }
}

}  // namespace
}  // namespace ccd::contract
