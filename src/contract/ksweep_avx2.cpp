// AVX2 kernel for the per-class worker resolve. Compiled into every x86-64
// build via per-function target attributes (the translation unit itself is
// baseline-ISA; only the tagged functions use AVX2 encodings), selected at
// run time through __builtin_cpu_supports. Non-x86 builds compile this file
// to nothing and use the portable loop.
//
// Arithmetic discipline: multiplies, subtracts, ordered compares, and
// compare+blend maxima only — no FMA — so each lane performs the exact
// rounding sequence of the scalar expression `w * f - mu * p` and of
// std::max (blend on strictly-greater keeps the earlier operand on ties,
// including mixed-sign zeros, matching std::max exactly).
//
// Each k step of a lane waits on its previous compare and blend, so one
// vector in flight would leave the FP ports idle most of the time: the main
// loop keeps four independent vectors (16 workers) in flight per pass. Each
// lane keeps its own compare/blend chain in k order, so a lane's results do
// not depend on how many vectors share its pass.
#include "contract/ksweep.hpp"

#ifdef CCD_KSWEEP_HAVE_AVX2

#include <immintrin.h>

namespace ccd::contract::detail {

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

namespace {

// Resolve 4 * V workers, weights[0 .. 4V), into out[0 .. 4V).
template <int V>
__attribute__((target("avx2"), always_inline)) inline void resolve_vectors(
    const ClassTableau& tableau, const double* weights, std::size_t* k_opt,
    double* requester_utility, double* upper_bound) {
  const std::size_t m = tableau.m;
  const __m256d mu = _mm256_set1_pd(tableau.mu);
  __m256d w[V];
  for (int v = 0; v < V; ++v) w[v] = _mm256_loadu_pd(weights + 4 * v);

  // Eq. 43 argmax; lane = worker, k runs serially. Strictly-greater blend
  // reproduces the scalar first-max tie break. mu * pay_k is the same
  // product for every lane, so one multiply serves all V vectors.
  __m256d best[V];
  __m256d best_k[V];
  {
    const __m256d feedback = _mm256_set1_pd(tableau.feedback[0]);
    const __m256d cost = _mm256_mul_pd(mu, _mm256_set1_pd(tableau.pay[0]));
    for (int v = 0; v < V; ++v) {
      best[v] = _mm256_sub_pd(_mm256_mul_pd(w[v], feedback), cost);
      best_k[v] = _mm256_set1_pd(1.0);
    }
  }
  for (std::size_t j = 1; j < m; ++j) {
    const __m256d feedback = _mm256_set1_pd(tableau.feedback[j]);
    const __m256d cost = _mm256_mul_pd(mu, _mm256_set1_pd(tableau.pay[j]));
    const __m256d k = _mm256_set1_pd(static_cast<double>(j + 1));
    for (int v = 0; v < V; ++v) {
      const __m256d utility =
          _mm256_sub_pd(_mm256_mul_pd(w[v], feedback), cost);
      const __m256d greater = _mm256_cmp_pd(utility, best[v], _CMP_GT_OQ);
      best[v] = _mm256_blendv_pd(best[v], utility, greater);
      best_k[v] = _mm256_blendv_pd(best_k[v], k, greater);
    }
  }

  // Theorem 4.1 upper bound. blend-on-greater == std::max(ub, value).
  __m256d ub[V];
  for (int v = 0; v < V; ++v) ub[v] = _mm256_set1_pd(-1e300);
  for (std::size_t j = 0; j < m; ++j) {
    const __m256d feedback = _mm256_set1_pd(tableau.ub_feedback[j]);
    const __m256d cost = _mm256_mul_pd(mu, _mm256_set1_pd(tableau.ub_pay[j]));
    for (int v = 0; v < V; ++v) {
      const __m256d value = _mm256_sub_pd(_mm256_mul_pd(w[v], feedback), cost);
      ub[v] = _mm256_blendv_pd(ub[v], value,
                               _mm256_cmp_pd(value, ub[v], _CMP_GT_OQ));
    }
  }
  if (tableau.has_free_ride) {
    const __m256d feedback = _mm256_set1_pd(tableau.free_ride_feedback);
    for (int v = 0; v < V; ++v) {
      const __m256d value = _mm256_mul_pd(w[v], feedback);
      ub[v] = _mm256_blendv_pd(ub[v], value,
                               _mm256_cmp_pd(value, ub[v], _CMP_GT_OQ));
    }
  }

  alignas(32) double k_lanes[4 * V];
  for (int v = 0; v < V; ++v) {
    _mm256_storeu_pd(requester_utility + 4 * v, best[v]);
    _mm256_storeu_pd(upper_bound + 4 * v, ub[v]);
    _mm256_store_pd(k_lanes + 4 * v, best_k[v]);
  }
  for (int lane = 0; lane < 4 * V; ++lane) {
    k_opt[lane] = static_cast<std::size_t>(k_lanes[lane]);
  }
}

}  // namespace

__attribute__((target("avx2"))) void resolve_class_avx2(
    const ClassTableau& tableau, const double* weights, std::size_t count,
    const ResolveOut& out) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    resolve_vectors<4>(tableau, weights + i, out.k_opt + i,
                       out.requester_utility + i, out.upper_bound + i);
  }
  for (; i + 4 <= count; i += 4) {
    resolve_vectors<1>(tableau, weights + i, out.k_opt + i,
                       out.requester_utility + i, out.upper_bound + i);
  }
  if (i < count) {
    const ResolveOut tail{out.k_opt + i, out.requester_utility + i,
                          out.upper_bound + i};
    resolve_class_portable(tableau, weights + i, count - i, tail);
  }
}

}  // namespace ccd::contract::detail

#endif  // CCD_KSWEEP_HAVE_AVX2
