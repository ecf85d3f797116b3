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

#include "math/matrix.hpp"

namespace ccd::math {

/// Result of a least-squares solve.
struct LeastSquaresResult {
  std::vector<double> coefficients;  ///< minimizer of ||A x - b||2
  double residual_norm = 0.0;        ///< ||A x* - b||2
};

/// Solve min_x ||A x - b||2 via Householder QR. Requires rows >= cols and
/// full column rank (throws ccd::MathError otherwise). Copies A into
/// columns and runs solve_least_squares_columns.
LeastSquaresResult solve_least_squares(const Matrix& a,
                                       const std::vector<double>& b);

/// The kernel: `columns` holds an m x `cols` design column-major (column c
/// is columns[c*m, c*m + m)) and `rhs` its m right-hand sides, m =
/// rhs.size(). Both are overwritten: the upper triangle of `columns` with
/// R (below the diagonal is left stale) and `rhs` with Q^T b. Same
/// requirements and errors as solve_least_squares.
LeastSquaresResult solve_least_squares_columns(std::span<double> columns,
                                               std::span<double> rhs,
                                               std::size_t cols);

}  // namespace ccd::math
