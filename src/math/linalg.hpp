// Householder QR least squares.
#pragma once

#include <vector>

#include "math/matrix.hpp"

namespace ccd::math {

/// Result of a least-squares solve.
struct LeastSquaresResult {
  std::vector<double> coefficients;  ///< minimizer of ||A x - b||2
  double residual_norm = 0.0;        ///< ||A x* - b||2
};

/// Solve min_x ||A x - b||2 via Householder QR. Requires rows >= cols and
/// full column rank (throws ccd::MathError otherwise).
LeastSquaresResult solve_least_squares(const Matrix& a,
                                       const std::vector<double>& b);

}  // namespace ccd::math
