#include "math/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ccd::math {
namespace {

TEST(LeastSquaresTest, ExactSystemHasZeroResidual) {
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> b = {2.0, 3.0, 5.0};  // consistent
  const LeastSquaresResult r = solve_least_squares(a, b);
  EXPECT_NEAR(r.coefficients[0], 2.0, 1e-12);
  EXPECT_NEAR(r.coefficients[1], 3.0, 1e-12);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-10);
}

TEST(LeastSquaresTest, MatchesNormalEquations) {
  // Overdetermined line fit: y = 2x + 1 with symmetric perturbation.
  Matrix a(4, 2);
  std::vector<double> b(4);
  const double xs[] = {0.0, 1.0, 2.0, 3.0};
  const double ys[] = {1.1, 2.9, 5.1, 6.9};
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = xs[i];
    b[i] = ys[i];
  }
  const LeastSquaresResult r = solve_least_squares(a, b);
  EXPECT_NEAR(r.coefficients[1], 1.96, 1e-9);
  EXPECT_NEAR(r.coefficients[0], 1.06, 1e-9);
  // Residual equals direct computation.
  double rss = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double pred = r.coefficients[0] + r.coefficients[1] * xs[i];
    rss += (ys[i] - pred) * (ys[i] - pred);
  }
  EXPECT_NEAR(r.residual_norm, std::sqrt(rss), 1e-9);
}

TEST(LeastSquaresTest, RankDeficientThrows) {
  Matrix a(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // second column is a multiple of the first
  }
  EXPECT_THROW(solve_least_squares(a, {1.0, 2.0, 3.0}), MathError);
}

TEST(LeastSquaresTest, UnderdeterminedThrows) {
  EXPECT_THROW(solve_least_squares(Matrix(2, 3), {1.0, 2.0}), Error);
}

// Square full-rank systems are the rows == cols case of the QR solve: the
// solution is exact and the residual vanishes.
TEST(LeastSquaresTest, SquareSystemSolvesExactly) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const LeastSquaresResult r = solve_least_squares(a, {5.0, 10.0});
  ASSERT_EQ(r.coefficients.size(), 2u);
  EXPECT_NEAR(r.coefficients[0], 1.0, 1e-12);
  EXPECT_NEAR(r.coefficients[1], 3.0, 1e-12);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-12);
}

// A zero on the diagonal needs no row swap: the Householder reflection of
// the first column handles it.
TEST(LeastSquaresTest, ZeroLeadingEntryNeedsNoPivoting) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const LeastSquaresResult r = solve_least_squares(a, {2.0, 3.0});
  EXPECT_NEAR(r.coefficients[0], 3.0, 1e-12);
  EXPECT_NEAR(r.coefficients[1], 2.0, 1e-12);
}

TEST(LeastSquaresTest, SingularSquareSystemThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(solve_least_squares(a, {1.0, 2.0}), MathError);
}

TEST(LeastSquaresTest, RightHandSideLengthMustMatchRows) {
  EXPECT_THROW(solve_least_squares(Matrix::identity(3), {1.0, 2.0}), Error);
  EXPECT_THROW(solve_least_squares(Matrix::identity(2), {1.0, 2.0, 3.0}),
               Error);
}

// Random well-conditioned systems, square and tall: the solver recovers
// the planted coefficients when b is in the column space.
TEST(LeastSquaresTest, RandomConsistentSystemsRoundTrip) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t rows = n + static_cast<std::size_t>(trial % 3);
    Matrix a(rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    }
    for (std::size_t d = 0; d < n; ++d) a(d, d) += 5.0;  // well conditioned
    std::vector<double> x_true(n);
    for (double& v : x_true) v = rng.normal();
    const LeastSquaresResult r = solve_least_squares(a, a * x_true);
    ASSERT_EQ(r.coefficients.size(), n) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(r.coefficients[i], x_true[i], 1e-9) << "trial " << trial;
    }
    EXPECT_NEAR(r.residual_norm, 0.0, 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ccd::math
