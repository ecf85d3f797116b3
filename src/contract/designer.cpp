#include "contract/designer.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace ccd::contract {

double SubproblemSpec::resolved_domain() const {
  return effort_domain > 0.0 ? effort_domain : psi.usable_domain();
}

double SubproblemSpec::delta() const {
  return resolved_domain() / static_cast<double>(intervals);
}

void SubproblemSpec::validate() const {
  CCD_CHECK_MSG(mu > 0.0, "mu must be positive");
  CCD_CHECK_MSG(intervals >= 1, "need at least one effort interval");
  CCD_CHECK_MSG(incentives.beta > 0.0, "beta must be positive");
  CCD_CHECK_MSG(incentives.omega >= 0.0, "omega must be non-negative");
  const double domain = resolved_domain();
  CCD_CHECK_MSG(domain > 0.0, "effort domain must be positive");
  CCD_CHECK_MSG(psi.increasing_on(domain),
                "psi must be strictly increasing on the effort domain");
}

double requester_utility(const SubproblemSpec& spec,
                         const BestResponse& response) {
  return spec.weight * response.feedback - spec.mu * response.compensation;
}

namespace {

/// The zero-contract outcome shared by both exclusion paths (weight <= 0
/// and the max_k utility < 0 fallback).
DesignResult excluded_result(const SubproblemSpec& spec) {
  DesignResult result;
  result.excluded = true;
  result.contract = Contract();
  result.response = best_response(result.contract, spec.psi, spec.incentives);
  result.requester_utility = 0.0;
  return result;
}

}  // namespace

// A deterministic mix over the bit patterns of *every* field that
// distinguishes one subproblem from another, so specs differing only in
// psi, beta, or omega (e.g. the per-class fits of one fleet) can be
// targeted independently.
std::uint64_t fault_key(const SubproblemSpec& spec) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  };
  const auto mix_double = [&mix](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  mix_double(spec.psi.r2());
  mix_double(spec.psi.r1());
  mix_double(spec.psi.r0());
  mix_double(spec.incentives.beta);
  mix_double(spec.incentives.omega);
  mix_double(spec.weight);
  mix_double(spec.mu);
  mix(static_cast<std::uint64_t>(spec.intervals));
  mix_double(spec.effort_domain);
  return h;
}

void build_design_table(const SubproblemSpec& spec, DesignTable& table) {
  spec.validate();
  const std::size_t m = spec.intervals;
  table.delta = spec.delta();

  // The Eq. 39/40 recurrence never reads k: candidate k's slopes are the
  // prefix alpha_1..alpha_k of one shared sequence, so a single recurrence
  // pass serves the whole sweep, and one best-response scan answers every
  // candidate (sweep_best_responses). Its columns are per-thread scratch.
  thread_local CandidateRecurrence rec;
  candidate_recurrence(spec.psi, table.delta, m, m, spec.incentives,
                       /*cap_epsilon=*/true, rec);
  table.knots.resize(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    table.knots[l] = spec.psi(table.delta * static_cast<double>(l));
  }
  table.pay_prefix.assign(rec.pay_prefix.begin(), rec.pay_prefix.end());
  sweep_best_responses(spec.psi, spec.incentives, table.delta, table.knots,
                       table.pay_prefix, table.responses);
}

DesignTable build_design_table(const SubproblemSpec& spec) {
  DesignTable table;
  build_design_table(spec, table);
  return table;
}

Contract DesignTable::candidate(std::size_t k) const {
  CCD_CHECK_MSG(k >= 1 && k <= intervals(),
                "design table candidate k out of range");
  // The Contract copies the payments into its own block, so one buffer per
  // thread serves every build.
  thread_local std::vector<double> payments;
  payments.assign(pay_prefix.size(), pay_prefix[k]);
  std::copy(pay_prefix.begin(), pay_prefix.begin() + k + 1, payments.begin());
  return Contract(delta, knots, payments);
}

DesignResult resolve_design(const SubproblemSpec& spec,
                            const DesignTable& table) {
  spec.validate();

  // Non-positive feedback weight: no payment is worth it; exclude (§V's
  // "automatically eliminated" workers get the zero contract). The
  // requester drops their feedback entirely: zero utility, zero pay.
  if (spec.weight <= 0.0) return excluded_result(spec);

  CCD_FAULT_POINT("contract.design", fault_key(spec), ContractError);

  const std::size_t m = spec.intervals;
  CCD_CHECK_MSG(table.intervals() == m,
                "design table does not match spec.intervals");

  // Eq. 43 argmax; the first maximum wins (strictly greater replaces).
  DesignResult result;
  for (std::size_t k = 1; k <= m; ++k) {
    const double utility = requester_utility(spec, table.responses[k - 1]);
    if (k == 1 || utility > result.requester_utility) {
      result.requester_utility = utility;
      result.k_opt = k;
    }
  }

  // §V elimination fallback: when even the best candidate loses the
  // requester money, the zero contract (utility 0) strictly dominates.
  if (result.requester_utility < 0.0) return excluded_result(spec);

  result.contract = table.candidate(result.k_opt);
  result.response = table.responses[result.k_opt - 1];

  const double delta = spec.delta();
  result.upper_bound =
      theorem41_upper_bound(spec.psi, spec.weight, spec.mu,
                            spec.incentives.beta, delta, m,
                            spec.incentives.omega);
  result.lower_bound = theorem41_lower_bound(
      spec.psi, spec.weight, spec.mu, spec.incentives.beta, delta,
      result.k_opt);
  return result;
}

DesignResult design_contract(const SubproblemSpec& spec) {
  spec.validate();
  if (spec.weight <= 0.0) return excluded_result(spec);
  return resolve_design(spec, build_design_table(spec));
}

}  // namespace ccd::contract
