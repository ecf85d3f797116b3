#include "math/polyfit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "math/linalg.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace ccd::math {
namespace {

constexpr double kSingularEps = 1e-12;  // linalg.cpp's

/// `diag >= 0.0 ? -norm : norm`, the reflector's alpha.
double householder_alpha(double diag, double norm) {
  return diag >= 0.0 ? -norm : norm;
}

/// The one-window kernel's raw output: the fit in the centered and scaled
/// variable u = (x - shift) / scale, before polyfit's unscale.
struct QuadraticWindowFit {
  double coefficient[3] = {};
  double shift = 0.0;
  double scale = 0.0;
  double residual_norm = 0.0;
  bool irregular = false;  ///< polyfit does not fit this window this way
};

// The one-window kernel, the scalar twin of detail::quadratic_lanes_avx2
// (polyfit_avx2.cpp): the same passes and the same operations, on one
// window stored contiguously.
//
// Arithmetic discipline: the IEEE operations of polyfit and
// solve_least_squares_columns (linalg.cpp) for a 3-column design, in their
// order — multiplies, adds, subtracts, real divisions, square roots,
// ordered compares, never an FMA (ccd_math is built with
// -ffp-contract=off). In particular:
//  * lo/hi are std::min/std::max, as in polyfit (the earlier operand wins
//    ties, including mixed-sign zeros);
//  * every reduction starts from 0.0 and adds rows in ascending order;
//    passes are fused only where they read rows in the same order, e.g.
//    a column's norm is summed as the previous reflection writes it;
//  * column 0 is all ones, so its reflector tail multiplies by 1.0
//    exactly as the generic loop does.
// A window where the generic loop throws (norm or |R_ii| below 1e-12) or
// skips a reflection (||v||^2 below 1e-24) is flagged in `irregular`; its
// other outputs are meaningless.
//
// Columns: c0 is all ones (implicit), c1 = u overwrites x, c2 = u^2 lives
// in `work`, and the right-hand side overwrites y; each holds m >= 3 rows.
void quadratic_window(double* x, double* y, double* work, std::size_t m,
                      QuadraticWindowFit& out) {
  constexpr double eps = kSingularEps;
  constexpr double eps2 = kSingularEps * kSingularEps;
  double* const c1 = x;
  double* const c2 = work;
  double* const rhs = y;
  bool irregular = false;

  // polyfit's centering, with column 0's norm (rows 0..m-1 of ones).
  double lo = x[0];
  double hi = lo;
  double norm = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    lo = std::min(lo, x[r]);
    hi = std::max(hi, x[r]);
    norm += 1.0 * 1.0;
  }
  const double shift = 0.5 * (lo + hi);
  double scale = 0.5 * (hi - lo);
  if (scale <= 0.0) scale = 1.0;

  // Reflection 0. Its projections read the columns before any reflection,
  // so they are summed as the design's u and u^2 columns are built.
  norm = std::sqrt(norm);
  irregular |= norm < eps;
  double diag = 1.0;
  double v0 = diag - householder_alpha(diag, norm);
  double vnorm2 = 0.0 + v0 * v0;
  double p0 = 0.0 + v0 * 1.0;
  double u = (x[0] - shift) / scale;
  double u2 = u * u;
  c1[0] = u;
  c2[0] = u2;
  double p1 = 0.0 + v0 * u;
  double p2 = 0.0 + v0 * u2;
  double p3 = 0.0 + v0 * rhs[0];
  for (std::size_t r = 1; r < m; ++r) {
    u = (x[r] - shift) / scale;
    u2 = u * u;
    c1[r] = u;
    c2[r] = u2;
    vnorm2 += 1.0 * 1.0;
    p0 += 1.0 * 1.0;
    p1 += 1.0 * u;
    p2 += 1.0 * u2;
    p3 += 1.0 * rhs[r];
  }
  irregular |= vnorm2 < eps2;
  p0 = 2.0 * p0 / vnorm2;
  p1 = 2.0 * p1 / vnorm2;
  p2 = 2.0 * p2 / vnorm2;
  p3 = 2.0 * p3 / vnorm2;
  const double r00 = diag - p0 * v0;
  c1[0] = c1[0] - p1 * v0;
  c2[0] = c2[0] - p2 * v0;
  rhs[0] = rhs[0] - p3 * v0;
  // Apply it below the diagonal, summing column 1's norm as it lands.
  norm = 0.0;
  for (std::size_t r = 1; r < m; ++r) {
    const double a = c1[r] - p1 * 1.0;
    c1[r] = a;
    c2[r] = c2[r] - p2 * 1.0;
    rhs[r] = rhs[r] - p3 * 1.0;
    norm += a * a;
  }

  // Reflection 1: reflector (diag - alpha, c1[2..m)).
  norm = std::sqrt(norm);
  irregular |= norm < eps;
  diag = c1[1];
  v0 = diag - householder_alpha(diag, norm);
  vnorm2 = 0.0 + v0 * v0;
  p1 = 0.0 + v0 * diag;
  p2 = 0.0 + v0 * c2[1];
  p3 = 0.0 + v0 * rhs[1];
  for (std::size_t r = 2; r < m; ++r) {
    const double v = c1[r];
    vnorm2 += v * v;
    p1 += v * v;
    p2 += v * c2[r];
    p3 += v * rhs[r];
  }
  irregular |= vnorm2 < eps2;
  p1 = 2.0 * p1 / vnorm2;
  p2 = 2.0 * p2 / vnorm2;
  p3 = 2.0 * p3 / vnorm2;
  const double r11 = diag - p1 * v0;
  c2[1] = c2[1] - p2 * v0;
  rhs[1] = rhs[1] - p3 * v0;
  norm = 0.0;
  for (std::size_t r = 2; r < m; ++r) {
    const double v = c1[r];
    const double a = c2[r] - p2 * v;
    c2[r] = a;
    rhs[r] = rhs[r] - p3 * v;
    norm += a * a;
  }

  // Reflection 2: reflector (diag - alpha, c2[3..m)).
  norm = std::sqrt(norm);
  irregular |= norm < eps;
  diag = c2[2];
  v0 = diag - householder_alpha(diag, norm);
  vnorm2 = 0.0 + v0 * v0;
  p2 = 0.0 + v0 * diag;
  p3 = 0.0 + v0 * rhs[2];
  for (std::size_t r = 3; r < m; ++r) {
    const double v = c2[r];
    vnorm2 += v * v;
    p2 += v * v;
    p3 += v * rhs[r];
  }
  irregular |= vnorm2 < eps2;
  p2 = 2.0 * p2 / vnorm2;
  p3 = 2.0 * p3 / vnorm2;
  const double r22 = diag - p2 * v0;
  const double b2 = rhs[2] - p3 * v0;
  // The residual norm is ||(Q^T b)[3..m)||, summed as it lands.
  double tail = 0.0;
  for (std::size_t r = 3; r < m; ++r) {
    const double b = rhs[r] - p3 * c2[r];
    tail += b * b;
  }

  // Back substitution, rows 2, 1, 0.
  irregular |= std::abs(r22) < eps;
  irregular |= std::abs(r11) < eps;
  irregular |= std::abs(r00) < eps;
  const double k2 = b2 / r22;
  double acc = rhs[1] - c2[1] * k2;
  const double k1 = acc / r11;
  acc = rhs[0] - c1[0] * k1;
  acc = acc - c2[0] * k2;
  const double k0 = acc / r00;

  out.coefficient[0] = k0;
  out.coefficient[1] = k1;
  out.coefficient[2] = k2;
  out.shift = shift;
  out.scale = scale;
  out.residual_norm = std::sqrt(tail);
  out.irregular = irregular;
}

/// Expand a polynomial in the scaled variable u = (x - shift) / scale back
/// into coefficients of x, by composing with the linear map.
Polynomial unscale(const Polynomial& in_u, double shift, double scale) {
  // x -> u = (x - shift)/scale;  p(u) = sum c_k u^k.
  const Polynomial u = Polynomial::linear(-shift / scale, 1.0 / scale);
  Polynomial result = Polynomial::constant(0.0);
  Polynomial u_power = Polynomial::constant(1.0);
  for (std::size_t k = 0; k < in_u.coefficients().size(); ++k) {
    result = result + u_power * in_u.coefficients()[k];
    u_power = u_power * u;
  }
  return result;
}

/// Stable per-call key for fault injection: mixes the sample count with the
/// bit patterns of the first sample (x0, y0) so distinct fits get distinct
/// keys.
std::uint64_t fault_key(std::size_t samples, double x0, double y0,
                        std::size_t degree) {
  return (static_cast<std::uint64_t>(samples) << 32) ^
         std::bit_cast<std::uint64_t>(x0) ^
         (std::bit_cast<std::uint64_t>(y0) * 0x9e3779b97f4a7c15ULL) ^ degree;
}

/// The one-window kernel on m samples in x and y, or std::nullopt where it
/// flags the window. The epilogue stays out of quadratic_window: with
/// unscale folded into it, GCC 12 compiled the kernel's loops 10-15%
/// slower (BM_PolyFit).
std::optional<PolyFitResult> fit_quadratic_window(double* x, double* y,
                                                  double* work,
                                                  std::size_t m) {
  QuadraticWindowFit raw;
  quadratic_window(x, y, work, m, raw);
  if (raw.irregular) return std::nullopt;
  // polyfit's own epilogue, on the window's coefficients.
  PolyFitResult out;
  out.polynomial = unscale(Polynomial({raw.coefficient[0], raw.coefficient[1],
                                       raw.coefficient[2]}),
                           raw.shift, raw.scale);
  out.norm_of_residuals = raw.residual_norm;
  return out;
}

}  // namespace

PolyFitResult polyfit(const std::vector<double>& xs,
                      const std::vector<double>& ys, std::size_t degree) {
  CCD_CHECK_MSG(xs.size() == ys.size(), "polyfit sample size mismatch");
  CCD_CHECK_MSG(xs.size() >= degree + 1,
                "polyfit needs at least degree+1 samples");
  CCD_FAULT_POINT("math.polyfit", fault_key(xs.size(), xs[0], ys[0], degree),
                  MathError);

  if (degree == 2) {
    // x, y and the kernel's scratch in one uninitialized block.
    const std::size_t m = xs.size();
    const auto block = std::make_unique_for_overwrite<double[]>(3 * m);
    double* const x = block.get();
    double* const y = x + m;
    std::copy(xs.begin(), xs.end(), x);
    std::copy(ys.begin(), ys.end(), y);
    if (std::optional<PolyFitResult> fit =
            fit_quadratic_window(x, y, y + m, m)) {
      return std::move(*fit);
    }
  }

  // Center/scale x for Vandermonde conditioning.
  double lo = xs[0];
  double hi = xs[0];
  for (const double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double shift = 0.5 * (lo + hi);
  double scale = 0.5 * (hi - lo);
  if (scale <= 0.0) scale = 1.0;  // all x equal; fit degenerates to constant

  // Vandermonde design in u = (x - shift) / scale, column-major: column c
  // holds u^c as the running product u^(c-1) * u (column 1 is 1.0 * u = u).
  const std::size_t m = xs.size();
  const std::size_t n = degree + 1;
  std::vector<double> design(m * n, 1.0);
  if (n > 1) {
    double* const u = design.data() + m;
    for (std::size_t r = 0; r < m; ++r) u[r] = (xs[r] - shift) / scale;
    for (std::size_t c = 2; c < n; ++c) {
      const double* const prev = design.data() + (c - 1) * m;
      double* const power = design.data() + c * m;
      for (std::size_t r = 0; r < m; ++r) power[r] = prev[r] * u[r];
    }
  }
  std::vector<double> rhs = ys;

  const LeastSquaresResult ls = solve_least_squares_columns(design, rhs, n);
  PolyFitResult out;
  out.polynomial = unscale(Polynomial(ls.coefficients), shift, scale);
  out.norm_of_residuals = ls.residual_norm;
  return out;
}

std::optional<PolyFitResult> polyfit_quadratic_in_place(
    std::span<double> x, std::span<double> y, std::span<double> work) {
  const std::size_t m = x.size();
  CCD_CHECK_MSG(y.size() == m && work.size() == m,
                "polyfit_quadratic_in_place column sizes differ");
  CCD_CHECK_MSG(m >= 3, "polyfit needs at least degree+1 samples");
  CCD_FAULT_POINT("math.polyfit", fault_key(m, x[0], y[0], 2), MathError);
  return fit_quadratic_window(x.data(), y.data(), work.data(), m);
}

bool quadratic_lanes_available() {
#ifdef CCD_POLYFIT_HAVE_AVX2
  static const bool supported = detail::avx2_supported();
  return supported;
#else
  return false;
#endif
}

void QuadraticLanes::resize(std::size_t m) {
  CCD_CHECK_MSG(m >= 3, "a quadratic fit needs at least 3 samples");
  samples = m;
  x.resize(kLanes * m);
  y.resize(kLanes * m);
  work.resize(kLanes * m);
}

void polyfit_quadratic_lanes(QuadraticLanes& lanes, unsigned lanes_mask) {
  CCD_CHECK_MSG(quadratic_lanes_available(),
                "polyfit_quadratic_lanes needs a CPU with AVX2");
  const std::size_t m = lanes.samples;
  CCD_CHECK_MSG(m >= 3 && lanes.x.size() == QuadraticLanes::kLanes * m &&
                    lanes.y.size() == lanes.x.size() &&
                    lanes.work.size() == lanes.x.size(),
                "polyfit_quadratic_lanes buffers do not match samples "
                "(call QuadraticLanes::resize)");
  lanes.fitted = 0;
  lanes.failed = 0;
  for (std::size_t l = 0; l < QuadraticLanes::kLanes; ++l) {
    lanes.error[l] = nullptr;
    if (!(lanes_mask >> l & 1u)) continue;
    try {
      CCD_FAULT_POINT("math.polyfit",
                      fault_key(m, lanes.x[l], lanes.y[l], 2), MathError);
    } catch (const MathError&) {
      lanes.error[l] = std::current_exception();
      lanes.failed |= 1u << l;
    }
  }
#ifdef CCD_POLYFIT_HAVE_AVX2
  detail::QuadraticLaneFit raw;
  detail::quadratic_lanes_avx2(lanes.x.data(), lanes.y.data(),
                               lanes.work.data(), m, raw);
  const unsigned fit = lanes_mask & ~lanes.failed & ~raw.irregular;
  for (std::size_t l = 0; l < QuadraticLanes::kLanes; ++l) {
    if (!(fit >> l & 1u)) continue;
    // polyfit's own epilogue, on the lane's coefficients.
    lanes.fit[l].polynomial =
        unscale(Polynomial({raw.coefficient[0][l], raw.coefficient[1][l],
                            raw.coefficient[2][l]}),
                raw.shift[l], raw.scale[l]);
    lanes.fit[l].norm_of_residuals = raw.residual_norm[l];
  }
  lanes.fitted = fit;
#endif
}

double norm_of_residuals(const Polynomial& p, const std::vector<double>& xs,
                         const std::vector<double>& ys) {
  CCD_CHECK_MSG(xs.size() == ys.size(), "NoR sample size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - p(xs[i]);
    acc += r * r;
  }
  return std::sqrt(acc);
}

std::vector<double> nor_by_degree(const std::vector<double>& xs,
                                  const std::vector<double>& ys,
                                  std::size_t min_degree,
                                  std::size_t max_degree) {
  CCD_CHECK_MSG(min_degree <= max_degree, "nor_by_degree degree range");
  std::vector<double> out;
  out.reserve(max_degree - min_degree + 1);
  for (std::size_t d = min_degree; d <= max_degree; ++d) {
    out.push_back(polyfit(xs, ys, d).norm_of_residuals);
  }
  return out;
}

}  // namespace ccd::math
