#include "contract/ksweep.hpp"

#include <algorithm>

#include "contract/bounds.hpp"
#include "util/error.hpp"

namespace ccd::contract {

bool simd_available() {
#ifdef CCD_KSWEEP_HAVE_AVX2
  static const bool supported = detail::avx2_supported();
  return supported;
#else
  return false;
#endif
}

std::string simd_kernel_name() {
  return simd_available() ? "avx2" : "portable";
}

ClassTableau build_class_tableau(const SubproblemSpec& spec,
                                 const DesignTable& table,
                                 ScratchArena& arena) {
  const std::size_t m = spec.intervals;
  CCD_CHECK_MSG(table.intervals() == m,
                "design table does not match spec.intervals");
  const double delta = spec.delta();
  const double beta = spec.incentives.beta;
  const double omega = spec.incentives.omega;

  ClassTableau t;
  t.m = m;
  t.mu = spec.mu;
  double* feedback = arena.doubles(m);
  double* pay = arena.doubles(m);
  double* ub_feedback = arena.doubles(m);
  double* ub_pay = arena.doubles(m);
  for (std::size_t k = 1; k <= m; ++k) {
    const BestResponse& response = table.responses[k - 1];
    feedback[k - 1] = response.feedback;
    pay[k - 1] = response.compensation;
    // Same expressions as theorem41_upper_bound's l-loop operand, so
    // w * column - mu * column reproduces the scalar bound exactly.
    ub_feedback[k - 1] = spec.psi(delta * static_cast<double>(k));
    ub_pay[k - 1] = lemma43_compensation_lower(spec.psi, beta, delta, k, omega);
  }
  t.feedback = feedback;
  t.pay = pay;
  t.ub_feedback = ub_feedback;
  t.ub_pay = ub_pay;
  if (omega > 0.0) {
    t.has_free_ride = true;
    const double y_free =
        std::clamp(spec.psi.derivative_inverse(beta / omega), 0.0,
                   spec.psi.y_peak());
    t.free_ride_feedback = spec.psi(y_free);
  }
  return t;
}

namespace detail {

void resolve_class_portable(const ClassTableau& tableau, const double* weights,
                            std::size_t count, const ResolveOut& out) {
  const std::size_t m = tableau.m;
  const double mu = tableau.mu;
  for (std::size_t i = 0; i < count; ++i) {
    const double w = weights[i];
    // Eq. 43 argmax with the scalar path's first-max tie break (strictly
    // greater replaces).
    double best = w * tableau.feedback[0] - mu * tableau.pay[0];
    std::size_t best_k = 1;
    for (std::size_t j = 1; j < m; ++j) {
      const double utility = w * tableau.feedback[j] - mu * tableau.pay[j];
      if (utility > best) {
        best = utility;
        best_k = j + 1;
      }
    }
    // Theorem 4.1 upper bound, mirroring theorem41_upper_bound's reduction
    // (std::max keeps the earlier operand on ties).
    double ub = -1e300;
    for (std::size_t j = 0; j < m; ++j) {
      const double value = w * tableau.ub_feedback[j] - mu * tableau.ub_pay[j];
      ub = std::max(ub, value);
    }
    if (tableau.has_free_ride) {
      ub = std::max(ub, w * tableau.free_ride_feedback);
    }
    out.k_opt[i] = best_k;
    out.requester_utility[i] = best;
    out.upper_bound[i] = ub;
  }
}

}  // namespace detail

void resolve_class(const ClassTableau& tableau, const double* weights,
                   std::size_t count, const ResolveOut& out) {
  if (count == 0) return;
#ifdef CCD_KSWEEP_HAVE_AVX2
  if (simd_available()) {
    detail::resolve_class_avx2(tableau, weights, count, out);
    return;
  }
#endif
  detail::resolve_class_portable(tableau, weights, count, out);
}

}  // namespace ccd::contract
