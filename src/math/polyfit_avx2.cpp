// AVX2 kernel for polyfit_quadratic_lanes: polyfit(xs, ys, 2) on four
// windows at once, one window per lane of a __m256d. Compiled into every
// x86-64 build via per-function target attributes (the translation unit
// itself is baseline-ISA; only the tagged functions use AVX2 encodings),
// selected at run time through __builtin_cpu_supports. Non-x86 builds
// compile this file to nothing and fit every window through polyfit.
//
// Arithmetic discipline: each lane performs the IEEE operations of
// polyfit and solve_least_squares_columns (linalg.cpp) for a 3-column
// design, in their order — multiplies, adds, subtracts, real divisions,
// square roots, ordered compares and blends, never an FMA (ccd_math is
// built with -ffp-contract=off). In particular:
//  * lo/hi blend on strictly-less, which is std::min/std::max exactly
//    (the earlier operand wins ties, including mixed-sign zeros);
//  * every reduction starts from 0.0 and adds rows in ascending order;
//    passes are fused only where they read rows in the same order, e.g.
//    a column's norm is summed as the previous reflection writes it;
//  * column 0 is all ones, so its reflector tail multiplies by 1.0
//    exactly as the scalar loop does.
// A lane where the scalar kernel throws (norm or |R_ii| below 1e-12) or
// skips a reflection (||v||^2 below 1e-24) is flagged in `irregular`; its
// other outputs are meaningless.
#include "math/polyfit.hpp"

#ifdef CCD_POLYFIT_HAVE_AVX2

#include <immintrin.h>

#define CCD_AVX2 __attribute__((target("avx2")))

namespace ccd::math::detail {
namespace {

constexpr std::size_t kLanes = QuadraticLanes::kLanes;
constexpr double kSingularEps = 1e-12;  // linalg.cpp's

CCD_AVX2 inline __m256d load(const double* p, std::size_t row) {
  return _mm256_loadu_pd(p + kLanes * row);
}

CCD_AVX2 inline void store(double* p, std::size_t row, __m256d v) {
  _mm256_storeu_pd(p + kLanes * row, v);
}

CCD_AVX2 inline __m256d less(__m256d a, __m256d b) {
  return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}

// `diag >= 0.0 ? -norm : norm`; negation flips the sign bit, as `-norm`.
CCD_AVX2 inline __m256d householder_alpha(__m256d diag, __m256d norm) {
  const __m256d negated = _mm256_xor_pd(norm, _mm256_set1_pd(-0.0));
  return _mm256_blendv_pd(
      norm, negated, _mm256_cmp_pd(diag, _mm256_setzero_pd(), _CMP_GE_OQ));
}

// `2.0 * proj / vnorm2`.
CCD_AVX2 inline __m256d reflection_scale(__m256d proj, __m256d vnorm2) {
  return _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), proj), vnorm2);
}

// `std::abs(diag) < kSingularEps`.
CCD_AVX2 inline __m256d singular_diag(__m256d diag) {
  return less(_mm256_andnot_pd(_mm256_set1_pd(-0.0), diag),
              _mm256_set1_pd(kSingularEps));
}

}  // namespace

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

// Columns: c0 is all ones (implicit), c1 = u overwrites x, c2 = u^2 lives
// in `work`, and the right-hand side overwrites y.
CCD_AVX2 void quadratic_lanes_avx2(double* x, double* y, double* work,
                                   std::size_t m, QuadraticLaneFit& out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d eps = _mm256_set1_pd(kSingularEps);
  const __m256d eps2 = _mm256_set1_pd(kSingularEps * kSingularEps);
  double* const c1 = x;
  double* const c2 = work;
  double* const rhs = y;
  __m256d irregular = zero;

  // polyfit's centering, with column 0's norm (rows 0..m-1 of ones).
  __m256d lo = load(x, 0);
  __m256d hi = lo;
  __m256d norm = zero;
  for (std::size_t r = 0; r < m; ++r) {
    const __m256d xr = load(x, r);
    lo = _mm256_blendv_pd(lo, xr, less(xr, lo));
    hi = _mm256_blendv_pd(hi, xr, less(hi, xr));
    norm = _mm256_add_pd(norm, _mm256_mul_pd(one, one));
  }
  const __m256d shift = _mm256_mul_pd(half, _mm256_add_pd(lo, hi));
  __m256d scale = _mm256_mul_pd(half, _mm256_sub_pd(hi, lo));
  scale = _mm256_blendv_pd(scale, one, _mm256_cmp_pd(scale, zero, _CMP_LE_OQ));

  // Reflection 0. Its projections read the columns before any reflection,
  // so they are summed as the design's u and u^2 columns are built.
  norm = _mm256_sqrt_pd(norm);
  irregular = _mm256_or_pd(irregular, less(norm, eps));
  __m256d diag = one;
  __m256d v0 = _mm256_sub_pd(diag, householder_alpha(diag, norm));
  __m256d vnorm2 = _mm256_add_pd(zero, _mm256_mul_pd(v0, v0));
  __m256d p0 = _mm256_add_pd(zero, _mm256_mul_pd(v0, one));
  __m256d u = _mm256_div_pd(_mm256_sub_pd(load(x, 0), shift), scale);
  __m256d u2 = _mm256_mul_pd(u, u);
  store(c1, 0, u);
  store(c2, 0, u2);
  __m256d p1 = _mm256_add_pd(zero, _mm256_mul_pd(v0, u));
  __m256d p2 = _mm256_add_pd(zero, _mm256_mul_pd(v0, u2));
  __m256d p3 = _mm256_add_pd(zero, _mm256_mul_pd(v0, load(rhs, 0)));
  for (std::size_t r = 1; r < m; ++r) {
    u = _mm256_div_pd(_mm256_sub_pd(load(x, r), shift), scale);
    u2 = _mm256_mul_pd(u, u);
    const __m256d b = load(rhs, r);
    store(c1, r, u);
    store(c2, r, u2);
    vnorm2 = _mm256_add_pd(vnorm2, _mm256_mul_pd(one, one));
    p0 = _mm256_add_pd(p0, _mm256_mul_pd(one, one));
    p1 = _mm256_add_pd(p1, _mm256_mul_pd(one, u));
    p2 = _mm256_add_pd(p2, _mm256_mul_pd(one, u2));
    p3 = _mm256_add_pd(p3, _mm256_mul_pd(one, b));
  }
  irregular = _mm256_or_pd(irregular, less(vnorm2, eps2));
  p0 = reflection_scale(p0, vnorm2);
  p1 = reflection_scale(p1, vnorm2);
  p2 = reflection_scale(p2, vnorm2);
  p3 = reflection_scale(p3, vnorm2);
  const __m256d r00 = _mm256_sub_pd(diag, _mm256_mul_pd(p0, v0));
  store(c1, 0, _mm256_sub_pd(load(c1, 0), _mm256_mul_pd(p1, v0)));
  store(c2, 0, _mm256_sub_pd(load(c2, 0), _mm256_mul_pd(p2, v0)));
  store(rhs, 0, _mm256_sub_pd(load(rhs, 0), _mm256_mul_pd(p3, v0)));
  // Apply it below the diagonal, summing column 1's norm as it lands.
  norm = zero;
  for (std::size_t r = 1; r < m; ++r) {
    const __m256d a = _mm256_sub_pd(load(c1, r), _mm256_mul_pd(p1, one));
    store(c1, r, a);
    store(c2, r, _mm256_sub_pd(load(c2, r), _mm256_mul_pd(p2, one)));
    store(rhs, r, _mm256_sub_pd(load(rhs, r), _mm256_mul_pd(p3, one)));
    norm = _mm256_add_pd(norm, _mm256_mul_pd(a, a));
  }

  // Reflection 1: reflector (diag - alpha, c1[2..m)).
  norm = _mm256_sqrt_pd(norm);
  irregular = _mm256_or_pd(irregular, less(norm, eps));
  diag = load(c1, 1);
  v0 = _mm256_sub_pd(diag, householder_alpha(diag, norm));
  vnorm2 = _mm256_add_pd(zero, _mm256_mul_pd(v0, v0));
  p1 = _mm256_add_pd(zero, _mm256_mul_pd(v0, diag));
  p2 = _mm256_add_pd(zero, _mm256_mul_pd(v0, load(c2, 1)));
  p3 = _mm256_add_pd(zero, _mm256_mul_pd(v0, load(rhs, 1)));
  for (std::size_t r = 2; r < m; ++r) {
    const __m256d v = load(c1, r);
    vnorm2 = _mm256_add_pd(vnorm2, _mm256_mul_pd(v, v));
    p1 = _mm256_add_pd(p1, _mm256_mul_pd(v, v));
    p2 = _mm256_add_pd(p2, _mm256_mul_pd(v, load(c2, r)));
    p3 = _mm256_add_pd(p3, _mm256_mul_pd(v, load(rhs, r)));
  }
  irregular = _mm256_or_pd(irregular, less(vnorm2, eps2));
  p1 = reflection_scale(p1, vnorm2);
  p2 = reflection_scale(p2, vnorm2);
  p3 = reflection_scale(p3, vnorm2);
  const __m256d r11 = _mm256_sub_pd(diag, _mm256_mul_pd(p1, v0));
  store(c2, 1, _mm256_sub_pd(load(c2, 1), _mm256_mul_pd(p2, v0)));
  store(rhs, 1, _mm256_sub_pd(load(rhs, 1), _mm256_mul_pd(p3, v0)));
  norm = zero;
  for (std::size_t r = 2; r < m; ++r) {
    const __m256d v = load(c1, r);
    const __m256d a = _mm256_sub_pd(load(c2, r), _mm256_mul_pd(p2, v));
    store(c2, r, a);
    store(rhs, r, _mm256_sub_pd(load(rhs, r), _mm256_mul_pd(p3, v)));
    norm = _mm256_add_pd(norm, _mm256_mul_pd(a, a));
  }

  // Reflection 2: reflector (diag - alpha, c2[3..m)).
  norm = _mm256_sqrt_pd(norm);
  irregular = _mm256_or_pd(irregular, less(norm, eps));
  diag = load(c2, 2);
  v0 = _mm256_sub_pd(diag, householder_alpha(diag, norm));
  vnorm2 = _mm256_add_pd(zero, _mm256_mul_pd(v0, v0));
  p2 = _mm256_add_pd(zero, _mm256_mul_pd(v0, diag));
  p3 = _mm256_add_pd(zero, _mm256_mul_pd(v0, load(rhs, 2)));
  for (std::size_t r = 3; r < m; ++r) {
    const __m256d v = load(c2, r);
    vnorm2 = _mm256_add_pd(vnorm2, _mm256_mul_pd(v, v));
    p2 = _mm256_add_pd(p2, _mm256_mul_pd(v, v));
    p3 = _mm256_add_pd(p3, _mm256_mul_pd(v, load(rhs, r)));
  }
  irregular = _mm256_or_pd(irregular, less(vnorm2, eps2));
  p2 = reflection_scale(p2, vnorm2);
  p3 = reflection_scale(p3, vnorm2);
  const __m256d r22 = _mm256_sub_pd(diag, _mm256_mul_pd(p2, v0));
  const __m256d b2 = _mm256_sub_pd(load(rhs, 2), _mm256_mul_pd(p3, v0));
  // The residual norm is ||(Q^T b)[3..m)||, summed as it lands.
  __m256d tail = zero;
  for (std::size_t r = 3; r < m; ++r) {
    const __m256d b =
        _mm256_sub_pd(load(rhs, r), _mm256_mul_pd(p3, load(c2, r)));
    tail = _mm256_add_pd(tail, _mm256_mul_pd(b, b));
  }

  // Back substitution, rows 2, 1, 0.
  irregular = _mm256_or_pd(irregular, singular_diag(r22));
  irregular = _mm256_or_pd(irregular, singular_diag(r11));
  irregular = _mm256_or_pd(irregular, singular_diag(r00));
  const __m256d k2 = _mm256_div_pd(b2, r22);
  __m256d acc = _mm256_sub_pd(load(rhs, 1), _mm256_mul_pd(load(c2, 1), k2));
  const __m256d k1 = _mm256_div_pd(acc, r11);
  acc = _mm256_sub_pd(load(rhs, 0), _mm256_mul_pd(load(c1, 0), k1));
  acc = _mm256_sub_pd(acc, _mm256_mul_pd(load(c2, 0), k2));
  const __m256d k0 = _mm256_div_pd(acc, r00);

  _mm256_storeu_pd(out.coefficient[0], k0);
  _mm256_storeu_pd(out.coefficient[1], k1);
  _mm256_storeu_pd(out.coefficient[2], k2);
  _mm256_storeu_pd(out.shift, shift);
  _mm256_storeu_pd(out.scale, scale);
  _mm256_storeu_pd(out.residual_norm, _mm256_sqrt_pd(tail));
  out.irregular = static_cast<unsigned>(_mm256_movemask_pd(irregular));
}

}  // namespace ccd::math::detail

#endif  // CCD_POLYFIT_HAVE_AVX2
