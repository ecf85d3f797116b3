#include "math/linalg.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ccd::math {
namespace {

constexpr double kSingularEps = 1e-12;

}  // namespace

LeastSquaresResult solve_least_squares(const Matrix& a,
                                       const std::vector<double>& b) {
  CCD_CHECK_MSG(a.rows() >= a.cols(),
                "least squares requires at least as many rows as columns");
  CCD_CHECK_MSG(a.rows() == b.size(), "least squares rhs size mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Householder QR applied in place to [R | Q^T b].
  Matrix r = a;
  std::vector<double> qtb = b;

  for (std::size_t col = 0; col < n; ++col) {
    // Householder vector for column `col`, rows col..m-1.
    double norm = 0.0;
    for (std::size_t row = col; row < m; ++row) {
      norm += r(row, col) * r(row, col);
    }
    norm = std::sqrt(norm);
    if (norm < kSingularEps) {
      throw MathError("least squares: rank-deficient design matrix");
    }
    const double alpha = r(col, col) >= 0.0 ? -norm : norm;
    std::vector<double> v(m - col, 0.0);
    v[0] = r(col, col) - alpha;
    for (std::size_t row = col + 1; row < m; ++row) {
      v[row - col] = r(row, col);
    }
    double vnorm2 = 0.0;
    for (const double vi : v) vnorm2 += vi * vi;
    if (vnorm2 < kSingularEps * kSingularEps) {
      // Column already in triangular form.
      continue;
    }

    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and to qtb.
    for (std::size_t c = col; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t row = col; row < m; ++row) {
        proj += v[row - col] * r(row, c);
      }
      proj = 2.0 * proj / vnorm2;
      for (std::size_t row = col; row < m; ++row) {
        r(row, c) -= proj * v[row - col];
      }
    }
    double proj = 0.0;
    for (std::size_t row = col; row < m; ++row) {
      proj += v[row - col] * qtb[row];
    }
    proj = 2.0 * proj / vnorm2;
    for (std::size_t row = col; row < m; ++row) {
      qtb[row] -= proj * v[row - col];
    }
  }

  // Back substitution: R x = (Q^T b)[0..n).
  LeastSquaresResult result;
  result.coefficients.assign(n, 0.0);
  for (std::size_t ri = n; ri > 0; --ri) {
    const std::size_t row = ri - 1;
    if (std::abs(r(row, row)) < kSingularEps) {
      throw MathError("least squares: rank-deficient design matrix");
    }
    double acc = qtb[row];
    for (std::size_t c = row + 1; c < n; ++c) {
      acc -= r(row, c) * result.coefficients[c];
    }
    result.coefficients[row] = acc / r(row, row);
  }

  // Residual norm is the norm of the bottom part of Q^T b.
  double tail = 0.0;
  for (std::size_t row = n; row < m; ++row) tail += qtb[row] * qtb[row];
  result.residual_norm = std::sqrt(tail);
  return result;
}

}  // namespace ccd::math
