#include "math/polyfit.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

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
/// bit patterns of the first sample so distinct fits get distinct keys.
std::uint64_t fault_key(const std::vector<double>& xs,
                        const std::vector<double>& ys, std::size_t degree) {
  std::uint64_t bits_x = 0;
  std::uint64_t bits_y = 0;
  if (!xs.empty()) std::memcpy(&bits_x, &xs[0], sizeof(bits_x));
  if (!ys.empty()) std::memcpy(&bits_y, &ys[0], sizeof(bits_y));
  return (static_cast<std::uint64_t>(xs.size()) << 32) ^ bits_x ^
         (bits_y * 0x9e3779b97f4a7c15ULL) ^ degree;
}

}  // namespace

PolyFitResult polyfit(const std::vector<double>& xs,
                      const std::vector<double>& ys, std::size_t degree) {
  CCD_CHECK_MSG(xs.size() == ys.size(), "polyfit sample size mismatch");
  CCD_CHECK_MSG(xs.size() >= degree + 1,
                "polyfit needs at least degree+1 samples");
  CCD_FAULT_POINT("math.polyfit", fault_key(xs, ys, degree), MathError);

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
