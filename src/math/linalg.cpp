#include "math/linalg.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ccd::math {
namespace {

constexpr double kSingularEps = 1e-12;

}  // namespace

LeastSquaresResult solve_least_squares_columns(std::span<double> columns,
                                               std::span<double> rhs,
                                               std::size_t cols) {
  const std::size_t m = rhs.size();
  const std::size_t n = cols;
  CCD_CHECK_MSG(m >= n,
                "least squares requires at least as many rows as columns");
  CCD_CHECK_MSG(columns.size() == m * n,
                "least squares design holds " << columns.size()
                                              << " entries, expected " << m
                                              << " x " << n);

  // Householder QR applied in place to [R | Q^T b]: the right-hand side is
  // column n. proj[c] is column c's projection onto the current reflector.
  std::vector<double*> col_of(n + 1);
  for (std::size_t c = 0; c < n; ++c) col_of[c] = columns.data() + c * m;
  col_of[n] = rhs.data();
  std::vector<double> proj(n + 1);

  for (std::size_t col = 0; col < n; ++col) {
    // The reflector is v = (diag - alpha, x[col+1..m)). Its tail is column
    // `col` itself: nothing reads that column below the diagonal after
    // this reflection, so it is never updated there.
    double* const x = col_of[col];
    double norm = 0.0;
    for (std::size_t row = col; row < m; ++row) norm += x[row] * x[row];
    norm = std::sqrt(norm);
    if (norm < kSingularEps) {
      throw MathError("least squares: rank-deficient design matrix");
    }
    const double diag = x[col];
    const double alpha = diag >= 0.0 ? -norm : norm;
    const double v0 = diag - alpha;

    // One pass for ||v||^2 and the projections of columns col..n, each
    // taken over the columns as they were before this reflection.
    double vnorm2 = 0.0 + v0 * v0;
    for (std::size_t c = col; c <= n; ++c) proj[c] = 0.0 + v0 * col_of[c][col];
    for (std::size_t row = col + 1; row < m; ++row) {
      const double v = x[row];
      vnorm2 += v * v;
      for (std::size_t c = col; c <= n; ++c) proj[c] += v * col_of[c][row];
    }
    if (vnorm2 < kSingularEps * kSingularEps) {
      // Column already in triangular form.
      continue;
    }

    // Apply H = I - 2 v v^T / (v^T v) to columns col..n.
    for (std::size_t c = col; c <= n; ++c) proj[c] = 2.0 * proj[c] / vnorm2;
    x[col] = diag - proj[col] * v0;
    for (std::size_t c = col + 1; c <= n; ++c) {
      double* const y = col_of[c];
      const double p = proj[c];
      y[col] -= p * v0;
      for (std::size_t row = col + 1; row < m; ++row) y[row] -= p * x[row];
    }
  }

  // Back substitution: R x = (Q^T b)[0..n).
  LeastSquaresResult result;
  result.coefficients.assign(n, 0.0);
  for (std::size_t ri = n; ri > 0; --ri) {
    const std::size_t row = ri - 1;
    const double diag = col_of[row][row];
    if (std::abs(diag) < kSingularEps) {
      throw MathError("least squares: rank-deficient design matrix");
    }
    double acc = rhs[row];
    for (std::size_t c = row + 1; c < n; ++c) {
      acc -= col_of[c][row] * result.coefficients[c];
    }
    result.coefficients[row] = acc / diag;
  }

  // Residual norm is the norm of the bottom part of Q^T b.
  double tail = 0.0;
  for (std::size_t row = n; row < m; ++row) tail += rhs[row] * rhs[row];
  result.residual_norm = std::sqrt(tail);
  return result;
}

}  // namespace ccd::math
