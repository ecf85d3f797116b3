// Householder QR least squares.
//
// One kernel, on a column-major system: each column is contiguous, the
// reductions a reflection needs (||v||^2, every remaining column's
// projection, the right-hand side's projection) run as separate
// accumulators in one pass over the rows, and nothing is allocated per
// column. Every reduction still adds its terms from 0.0 in ascending row
// order, so the result is bit-for-bit that of the textbook
// column-by-column loop (pinned by tests/math/linalg_test.cpp). ccd_math is
// built with -ffp-contract=off so no target fuses `a - p * v` into an FMA.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ccd::math {

/// Result of a least-squares solve.
struct LeastSquaresResult {
  std::vector<double> coefficients;  ///< minimizer of ||A x - b||2
  double residual_norm = 0.0;        ///< ||A x* - b||2
};

/// Solve min_x ||A x - b||2 via Householder QR. `columns` holds the m x
/// `cols` design A column-major (column c is columns[c*m, c*m + m)) and
/// `rhs` its m right-hand sides b, m = rhs.size(). Both are overwritten:
/// the upper triangle of `columns` with R (below the diagonal is left
/// stale) and `rhs` with Q^T b. Requires m >= cols and m x cols entries
/// in `columns` (throws ccd::Error otherwise), and full column rank
/// (throws ccd::MathError otherwise).
LeastSquaresResult solve_least_squares_columns(std::span<double> columns,
                                               std::span<double> rhs,
                                               std::size_t cols);

}  // namespace ccd::math
