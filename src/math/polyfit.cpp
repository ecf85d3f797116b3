#include "math/polyfit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "math/linalg.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace ccd::math {
namespace {

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

}  // namespace

PolyFitResult polyfit(const std::vector<double>& xs,
                      const std::vector<double>& ys, std::size_t degree) {
  CCD_CHECK_MSG(xs.size() == ys.size(), "polyfit sample size mismatch");
  CCD_CHECK_MSG(xs.size() >= degree + 1,
                "polyfit needs at least degree+1 samples");
  CCD_FAULT_POINT("math.polyfit", fault_key(xs.size(), xs[0], ys[0], degree),
                  MathError);

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
