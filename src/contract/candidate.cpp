#include "contract/candidate.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ccd::contract {

void candidate_recurrence(const effort::QuadraticEffort& psi, double delta,
                          std::size_t m, std::size_t k_max,
                          const WorkerIncentives& inc, bool cap_epsilon,
                          CandidateRecurrence& out) {
  CCD_CHECK_MSG(delta > 0.0, "candidate delta must be positive");
  CCD_CHECK_MSG(m >= 1, "candidate needs at least one interval");
  CCD_CHECK_MSG(k_max >= 1 && k_max <= m,
                "candidate target interval k out of range");
  CCD_CHECK_MSG(inc.beta > 0.0, "worker beta must be positive");
  CCD_CHECK_MSG(inc.omega >= 0.0, "worker omega must be non-negative");

  // s_l = psi'(l * delta); the whole grid must sit where psi is strictly
  // increasing, else feedback knots would not be increasing.
  std::vector<double>& s = out.psi_prime;
  s.resize(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    s[l] = psi.derivative(delta * static_cast<double>(l));
    if (!(s[l] > 0.0)) {
      throw ContractError(
          "candidate grid reaches past the peak of psi; shrink delta*m");
    }
  }

  const double beta = inc.beta;
  const double omega = inc.omega;
  const double r2 = psi.r2();

  out.raw_slopes.clear();
  out.applied_slopes.clear();
  out.epsilons.clear();
  out.degenerate_window.clear();
  out.raw_slopes.reserve(k_max);
  out.applied_slopes.reserve(k_max);
  out.epsilons.reserve(k_max);
  out.degenerate_window.reserve(k_max);
  out.pay_prefix.clear();
  out.pay_prefix.reserve(k_max + 1);
  out.pay_prefix.push_back(0.0);

  // Seed: alpha_0 + omega = beta / psi'(0), the boundary at which the
  // stationary effort of Eq. 31 sits exactly at y = 0.
  double alpha_prev = beta / s[0] - omega;
  for (std::size_t l = 1; l <= k_max; ++l) {
    // Eq. 40's epsilon scales like delta^2 / psi'(m delta): on coarse grids
    // it can fill the whole Case-III window and push the slope to the
    // expensive Case-II edge, breaking Lemma 4.2's pay cap (the paper's
    // construction is implicitly fine-grid). Any positive epsilon keeps the
    // strict preference of Eq. 36, so we cap it at a small fraction of the
    // remaining window; for fine grids the Eq. 40 value is smaller and is
    // used unchanged.
    const double eps_eq40 =
        4.0 * beta * r2 * r2 * delta * delta / (s[l - 1] * s[l - 1] * s[l]);
    const double base =
        beta * beta / ((alpha_prev + omega) * s[l - 1] * s[l - 1]) - omega;
    const double window_right = beta / s[l] - omega;
    double eps = eps_eq40;
    bool degenerate = false;
    if (cap_epsilon) {
      eps = std::min(eps_eq40, 0.05 * (window_right - base));
      // Eq. 36 needs alpha strictly above base. The capped window can
      // collapse — non-positive after rounding when s_{l-1} and s_l agree
      // to the last bit, or so narrow that base + eps rounds back to base —
      // and the former min() then produced a non-positive (or numerically
      // inert) epsilon, silently dropping the strict preference. Substitute
      // a small relative floor: overshooting a collapsed window is
      // unavoidable, but the ascent toward interval k survives.
      if (!(base + eps > base)) {
        degenerate = true;
        eps = 1e-9 * std::max(1.0, std::abs(base));
      }
    }
    const double alpha_raw = base + eps;
    const double alpha_applied = std::max(alpha_raw, 0.0);
    const double d_prev = psi(delta * static_cast<double>(l - 1));
    const double d_here = psi(delta * static_cast<double>(l));
    out.pay_prefix.push_back(out.pay_prefix.back() +
                             alpha_applied * (d_here - d_prev));
    out.raw_slopes.push_back(alpha_raw);
    out.applied_slopes.push_back(alpha_applied);
    out.epsilons.push_back(eps);
    out.degenerate_window.push_back(degenerate ? 1 : 0);
    alpha_prev = alpha_raw;  // the recurrence uses the unclamped value
  }
}

Contract build_candidate(const effort::QuadraticEffort& psi, double delta,
                         std::size_t m, std::size_t k,
                         const WorkerIncentives& inc,
                         CandidateBuildInfo* info, bool cap_epsilon) {
  CandidateRecurrence rec;
  candidate_recurrence(psi, delta, m, k, inc, cap_epsilon, rec);

  if (info != nullptr) {
    info->raw_slopes = rec.raw_slopes;
    info->applied_slopes = rec.applied_slopes;
    info->epsilons = rec.epsilons;
    info->degenerate_window = rec.degenerate_window;
  }

  std::vector<double> payments(m + 1, 0.0);
  std::copy(rec.pay_prefix.begin(), rec.pay_prefix.end(), payments.begin());
  for (std::size_t l = k + 1; l <= m; ++l) {
    payments[l] = payments[k];  // flat past the target: extra effort is free
  }
  return Contract::on_effort_grid(psi, delta, std::move(payments));
}

}  // namespace ccd::contract
