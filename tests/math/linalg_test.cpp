// Least squares: the column-major Householder kernel, directly
// (solve_least_squares_columns) and through polyfit, and the one-window
// quadratic kernel (polyfit(xs, ys, 2) and polyfit_quadratic_in_place),
// against the textbook row-major loop they replaced. That loop is kept
// below, on a plain row-major array, as the bitwise reference: every fit
// must match it in every coefficient and in the residual norm, bit for
// bit, or throw the same MathError message; the in-place kernel may
// instead flag a window. This file is compiled with -ffp-contract=off
// (tests/CMakeLists.txt), as ccd_math is, so the reference rounds the same
// way on FMA targets.
#include "math/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/generator.hpp"
#include "data/metrics.hpp"
#include "effort/fitting.hpp"
#include "math/polyfit.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace ccd::math {
namespace {

// ---------------------------------------------------------------------------
// The reference: row-major Householder QR and the polyfit that drove it.

constexpr double kSingularEps = 1e-12;

/// The textbook loop on the m x n design `a`, row-major (entry (row, c) is
/// a[row * n + c]), and its m right-hand sides `b`.
LeastSquaresResult reference_least_squares(const std::vector<double>& a,
                                           std::size_t n,
                                           const std::vector<double>& b) {
  const std::size_t m = b.size();
  CCD_CHECK_MSG(m >= n,
                "least squares requires at least as many rows as columns");
  CCD_CHECK_MSG(a.size() == m * n, "least squares rhs size mismatch");

  // Householder QR applied in place to [R | Q^T b].
  std::vector<double> r_data = a;
  const auto r = [&](std::size_t row, std::size_t c) -> double& {
    return r_data[row * n + c];
  };
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

Polynomial reference_unscale(const Polynomial& in_u, double shift,
                             double scale) {
  const Polynomial u = Polynomial::linear(-shift / scale, 1.0 / scale);
  Polynomial result = Polynomial::constant(0.0);
  Polynomial u_power = Polynomial::constant(1.0);
  for (std::size_t k = 0; k < in_u.coefficients().size(); ++k) {
    result = result + u_power * in_u.coefficients()[k];
    u_power = u_power * u;
  }
  return result;
}

/// The row-major Vandermonde design polyfit solves (degree + 1 columns),
/// with its shift/scale.
std::vector<double> reference_design(const std::vector<double>& xs,
                                     std::size_t degree, double& shift,
                                     double& scale) {
  double lo = xs[0];
  double hi = xs[0];
  for (const double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  shift = 0.5 * (lo + hi);
  scale = 0.5 * (hi - lo);
  if (scale <= 0.0) scale = 1.0;

  std::vector<double> design(xs.size() * (degree + 1));
  for (std::size_t r = 0; r < xs.size(); ++r) {
    const double u = (xs[r] - shift) / scale;
    double power = 1.0;
    for (std::size_t c = 0; c <= degree; ++c) {
      design[r * (degree + 1) + c] = power;
      power *= u;
    }
  }
  return design;
}

PolyFitResult reference_polyfit(const std::vector<double>& xs,
                                const std::vector<double>& ys,
                                std::size_t degree) {
  double shift = 0.0;
  double scale = 0.0;
  const std::vector<double> design = reference_design(xs, degree, shift, scale);
  const LeastSquaresResult ls = reference_least_squares(design, degree + 1, ys);
  PolyFitResult out;
  out.polynomial = reference_unscale(Polynomial(ls.coefficients), shift, scale);
  out.norm_of_residuals = ls.residual_norm;
  return out;
}

// ---------------------------------------------------------------------------
// Bitwise outcomes.

/// One solve as bit patterns, or the MathError it threw.
struct Outcome {
  std::vector<std::uint64_t> coefficients;
  std::uint64_t residual = 0;
  std::string error;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome(const std::vector<double>& coefficients, double residual) {
  Outcome out;
  for (const double c : coefficients) {
    out.coefficients.push_back(std::bit_cast<std::uint64_t>(c));
  }
  out.residual = std::bit_cast<std::uint64_t>(residual);
  return out;
}

template <typename Solve>
Outcome solve_outcome(Solve&& solve) {
  try {
    const LeastSquaresResult r = solve();
    return outcome(r.coefficients, r.residual_norm);
  } catch (const MathError& e) {
    Outcome out;
    out.error = e.what();
    return out;
  }
}

template <typename Fit>
Outcome fit_outcome(Fit&& fit) {
  try {
    const PolyFitResult r = fit();
    return outcome(r.polynomial.coefficients(), r.norm_of_residuals);
  } catch (const MathError& e) {
    Outcome out;
    out.error = e.what();
    return out;
  }
}

std::string describe(const Outcome& o) {
  if (!o.error.empty()) return "threw '" + o.error + "'";
  std::ostringstream os;
  os << std::hex << "coefficients [";
  for (const std::uint64_t c : o.coefficients) os << " 0x" << c;
  os << " ] residual 0x" << o.residual;
  return os.str();
}

void PrintTo(const Outcome& o, std::ostream* os) { *os << describe(o); }

/// Counts mismatches and keeps the first one's description.
struct Mismatches {
  std::size_t count = 0;
  std::string first;

  void compare(const Outcome& kernel, const Outcome& reference,
               const std::string& what) {
    if (kernel == reference) return;
    if (count++ == 0) {
      first = what + ": kernel " + describe(kernel) + ", reference " +
              describe(reference);
    }
  }
};

// ---------------------------------------------------------------------------
// Seeded random systems.

struct FitCase {
  std::vector<double> xs;
  std::vector<double> ys;
  std::size_t degree = 1;
  std::string shape;
};

/// 3..5000 rows, log-uniform so most systems are small and some are large.
std::size_t draw_rows(util::Rng& rng, std::size_t min_rows) {
  const double hi = std::log(5000.0 / static_cast<double>(min_rows));
  const double rows =
      static_cast<double>(min_rows) * std::exp(rng.uniform(0.0, hi));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::llround(rows)),
                                 min_rows, 5000);
}

FitCase draw_fit_case(util::Rng& rng) {
  FitCase c;
  c.degree = static_cast<std::size_t>(rng.uniform_int(1, 6));
  const std::size_t rows =
      draw_rows(rng, std::max<std::size_t>(3, c.degree + 1));
  const double center = rng.uniform(-20.0, 20.0);
  const double width = std::exp(rng.uniform(-4.0, 4.0));
  const auto draw_x = [&] { return center + width * rng.uniform(-1.0, 1.0); };
  // A small pool of x values: repeated x, rank-deficient when the pool has
  // no more than `degree` distinct values.
  std::vector<double> pool(static_cast<std::size_t>(rng.uniform_int(1, 9)));
  for (double& x : pool) x = draw_x();

  switch (rng.uniform_int(0, 5)) {
    case 0:
      c.shape = "random";  // y is noise, unrelated to x
      for (std::size_t i = 0; i < rows; ++i) c.xs.push_back(draw_x());
      break;
    case 1:
      c.shape = "repeated-x";
      for (std::size_t i = 0; i < rows; ++i) {
        c.xs.push_back(pool[rng.uniform_int(0, pool.size() - 1)]);
      }
      break;
    case 2: {
      c.shape = "signed-zero-x";
      const double zero_pool[] = {-0.0, 0.0, -0.0, 1.0, -1.0, draw_x()};
      for (std::size_t i = 0; i < rows; ++i) {
        c.xs.push_back(zero_pool[rng.uniform_int(0, 5)]);
      }
      break;
    }
    case 3: {
      c.shape = "equal-x";
      const double x = rng.bernoulli(0.2) ? -0.0 : draw_x();
      c.xs.assign(rows, x);
      break;
    }
    case 4:
      c.shape = "zero-y";
      for (std::size_t i = 0; i < rows; ++i) c.xs.push_back(draw_x());
      break;
    default:
      c.shape = "noisy-curve";
      for (std::size_t i = 0; i < rows; ++i) c.xs.push_back(draw_x());
      break;
  }

  if (c.shape == "zero-y") {
    c.ys.assign(rows, rng.bernoulli(0.5) ? -0.0 : 0.0);
    return c;
  }
  const double magnitude = std::exp(rng.uniform(-3.0, 6.0));
  if (c.shape == "random") {
    for (std::size_t i = 0; i < rows; ++i) {
      c.ys.push_back(magnitude * rng.normal());
    }
    return c;
  }
  // y: a random polynomial in x plus noise, at a random magnitude.
  std::vector<double> truth(c.degree + 1);
  for (double& t : truth) t = rng.normal();
  const double noise = std::exp(rng.uniform(-8.0, 1.0));
  for (const double x : c.xs) {
    const double u = (x - center) / width;
    double y = 0.0;
    for (std::size_t k = truth.size(); k > 0; --k) y = y * u + truth[k - 1];
    c.ys.push_back(magnitude * (y + noise * rng.normal()));
  }
  return c;
}

/// A general (non-Vandermonde) row-major design, sometimes rank-deficient:
/// a zero, duplicated, scaled or vanishingly small column.
std::vector<double> draw_matrix(util::Rng& rng, std::size_t rows,
                                std::size_t cols) {
  std::vector<double> a(rows * cols);
  for (double& entry : a) entry = rng.normal();
  if (cols < 2 || rng.bernoulli(0.5)) return a;
  const auto target = static_cast<std::size_t>(rng.uniform_int(1, cols - 1));
  const auto source = static_cast<std::size_t>(rng.uniform_int(0, target - 1));
  const double factor = rng.normal();
  const double tiny = std::exp(rng.uniform(-40.0, -20.0));
  const auto kind = rng.uniform_int(0, 3);
  for (std::size_t r = 0; r < rows; ++r) {
    double& entry = a[r * cols + target];
    switch (kind) {
      case 0: entry = 0.0; break;
      case 1: entry = a[r * cols + source]; break;
      case 2: entry = factor * a[r * cols + source]; break;
      default: entry = tiny * entry; break;
    }
  }
  return a;
}

/// solve_least_squares_columns on a row-major design of n columns, copied
/// into columns.
LeastSquaresResult solve_row_major(const std::vector<double>& a, std::size_t n,
                                   const std::vector<double>& b) {
  const std::size_t m = b.size();
  std::vector<double> columns(m * n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t row = 0; row < m; ++row) {
      columns[c * m + row] = a[row * n + c];
    }
  }
  std::vector<double> rhs = b;
  return solve_least_squares_columns(columns, rhs, n);
}

// ---------------------------------------------------------------------------

TEST(LeastSquaresTest, ExactSystemHasZeroResidual) {
  // A = [[1, 0], [0, 1], [1, 1]], column-major.
  std::vector<double> columns = {1.0, 0.0, 1.0, 0.0, 1.0, 1.0};
  std::vector<double> b = {2.0, 3.0, 5.0};  // consistent
  const LeastSquaresResult r = solve_least_squares_columns(columns, b, 2);
  EXPECT_NEAR(r.coefficients[0], 2.0, 1e-12);
  EXPECT_NEAR(r.coefficients[1], 3.0, 1e-12);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-10);
}

TEST(LeastSquaresTest, MatchesNormalEquations) {
  // Overdetermined line fit: y = 2x + 1 with symmetric perturbation.
  const double xs[] = {0.0, 1.0, 2.0, 3.0};
  const double ys[] = {1.1, 2.9, 5.1, 6.9};
  std::vector<double> columns(8);
  std::vector<double> b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    columns[i] = 1.0;
    columns[4 + i] = xs[i];
    b[i] = ys[i];
  }
  const LeastSquaresResult r = solve_least_squares_columns(columns, b, 2);
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
  // The second column is a multiple of the first.
  std::vector<double> columns = {1.0, 1.0, 1.0, 2.0, 2.0, 2.0};
  std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_THROW(solve_least_squares_columns(columns, b, 2), MathError);
}

TEST(LeastSquaresTest, UnderdeterminedThrows) {
  std::vector<double> columns(6, 0.0);  // 2 rows, 3 columns
  std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(solve_least_squares_columns(columns, b, 3), Error);
}

// Square full-rank systems are the rows == cols case of the QR solve: the
// solution is exact and the residual vanishes.
TEST(LeastSquaresTest, SquareSystemSolvesExactly) {
  // A = [[2, 1], [1, 3]], column-major.
  std::vector<double> columns = {2.0, 1.0, 1.0, 3.0};
  std::vector<double> b = {5.0, 10.0};
  const LeastSquaresResult r = solve_least_squares_columns(columns, b, 2);
  ASSERT_EQ(r.coefficients.size(), 2u);
  EXPECT_NEAR(r.coefficients[0], 1.0, 1e-12);
  EXPECT_NEAR(r.coefficients[1], 3.0, 1e-12);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-12);
}

// A zero on the diagonal needs no row swap: the Householder reflection of
// the first column handles it.
TEST(LeastSquaresTest, ZeroLeadingEntryNeedsNoPivoting) {
  // A = [[0, 1], [1, 0]], column-major.
  std::vector<double> columns = {0.0, 1.0, 1.0, 0.0};
  std::vector<double> b = {2.0, 3.0};
  const LeastSquaresResult r = solve_least_squares_columns(columns, b, 2);
  EXPECT_NEAR(r.coefficients[0], 3.0, 1e-12);
  EXPECT_NEAR(r.coefficients[1], 2.0, 1e-12);
}

TEST(LeastSquaresTest, SingularSquareSystemThrows) {
  // A = [[1, 2], [2, 4]], column-major.
  std::vector<double> columns = {1.0, 2.0, 2.0, 4.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(solve_least_squares_columns(columns, b, 2), MathError);
}

TEST(LeastSquaresTest, RightHandSideLengthMustMatchRows) {
  // A 3 x 3 identity against 2 right-hand sides, then a 2 x 2 one
  // against 3.
  std::vector<double> identity3 = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW(solve_least_squares_columns(identity3, two, 3), Error);
  std::vector<double> identity2 = {1, 0, 0, 1};
  std::vector<double> three = {1.0, 2.0, 3.0};
  EXPECT_THROW(solve_least_squares_columns(identity2, three, 2), Error);
}

// Random well-conditioned systems, square and tall: the solver recovers
// the planted coefficients when b is in the column space.
TEST(LeastSquaresTest, RandomConsistentSystemsRoundTrip) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t rows = n + static_cast<std::size_t>(trial % 3);
    std::vector<double> columns(rows * n);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < n; ++c) columns[c * rows + r] = rng.normal();
    }
    // Well conditioned.
    for (std::size_t d = 0; d < n; ++d) columns[d * rows + d] += 5.0;
    std::vector<double> x_true(n);
    for (double& v : x_true) v = rng.normal();
    std::vector<double> b(rows, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        b[r] += columns[c * rows + r] * x_true[c];
      }
    }
    const LeastSquaresResult r = solve_least_squares_columns(columns, b, n);
    ASSERT_EQ(r.coefficients.size(), n) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(r.coefficients[i], x_true[i], 1e-9) << "trial " << trial;
    }
    EXPECT_NEAR(r.residual_norm, 0.0, 1e-9) << "trial " << trial;
  }
}

TEST(LeastSquaresTest, ColumnKernelChecksItsBufferSizes) {
  std::vector<double> columns(6, 1.0);
  std::vector<double> rhs(3, 1.0);
  EXPECT_THROW(solve_least_squares_columns(columns, rhs, 3), Error);
  std::vector<double> short_rhs(2, 1.0);
  EXPECT_THROW(solve_least_squares_columns(columns, short_rhs, 3), Error);
}

// The named corner cases, each through polyfit and through
// solve_least_squares_columns on the reference's own design.
TEST(LeastSquaresBitwiseTest, CornerCasesMatchRowMajorReference) {
  const std::vector<double> ramp = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5};
  const struct {
    const char* name;
    std::vector<double> xs;
    std::vector<double> ys;
  } cases[] = {
      {"all x equal", {2.0, 2.0, 2.0, 2.0}, {1.0, 2.0, 3.0, 4.0}},
      {"all x -0.0", {-0.0, -0.0, -0.0}, {1.0, -1.0, 0.5}},
      {"x with -0.0", {-0.0, 0.0, 1.0, -1.0, -0.0, 2.0, 0.0}, ramp},
      {"zero y", ramp, std::vector<double>(ramp.size(), 0.0)},
      {"-0.0 y", ramp, std::vector<double>(ramp.size(), -0.0)},
      {"two distinct x", {1.0, 3.0, 1.0, 3.0, 1.0, 3.0}, {1, 2, 3, 4, 5, 6}},
      {"exact quadratic", ramp, {1.0, 2.25, 3.0, 3.25, 3.0, 2.25, 1.0}},
  };
  Mismatches mismatches;
  std::size_t fits = 0;
  for (const auto& c : cases) {
    for (std::size_t degree = 1; degree <= 6 && degree < c.xs.size();
         ++degree) {
      const std::string what =
          std::string(c.name) + " degree " + std::to_string(degree);
      mismatches.compare(
          fit_outcome([&] { return polyfit(c.xs, c.ys, degree); }),
          fit_outcome([&] { return reference_polyfit(c.xs, c.ys, degree); }),
          "polyfit " + what);
      double shift = 0.0;
      double scale = 0.0;
      const std::vector<double> design =
          reference_design(c.xs, degree, shift, scale);
      mismatches.compare(
          solve_outcome(
              [&] { return solve_row_major(design, degree + 1, c.ys); }),
          solve_outcome([&] {
            return reference_least_squares(design, degree + 1, c.ys);
          }),
          "solve_least_squares_columns " + what);
      ++fits;
    }
  }
  EXPECT_GT(fits, 30u);
  EXPECT_EQ(mismatches.count, 0u) << mismatches.first;
}

// 10,000 seeded polyfit systems (1,250 per shard) over 3..5000 samples and
// degrees 1..6 — random, repeated-x, -0.0-laden, all-equal-x, all-zero-y
// and noisy-curve inputs — each through polyfit and through
// solve_least_squares_columns on the reference's design, plus 500 general
// systems of 2..12 columns per shard (some with a zero, duplicated, scaled
// or tiny column). Every one must match the reference bit for bit or throw
// its message.
class LeastSquaresShardTest : public ::testing::TestWithParam<int> {};

TEST_P(LeastSquaresShardTest, SeededSystemsMatchRowMajorReferenceBitwise) {
  util::Rng rng(0x1e57'0000ULL + static_cast<std::uint64_t>(GetParam()));
  Mismatches mismatches;
  std::size_t threw = 0;
  for (int i = 0; i < 1250; ++i) {
    const FitCase c = draw_fit_case(rng);
    const std::string what = "case " + std::to_string(i) + " (" + c.shape +
                             ", " + std::to_string(c.xs.size()) +
                             " rows, degree " + std::to_string(c.degree) + ")";
    const Outcome reference =
        fit_outcome([&] { return reference_polyfit(c.xs, c.ys, c.degree); });
    if (!reference.error.empty()) ++threw;
    mismatches.compare(
        fit_outcome([&] { return polyfit(c.xs, c.ys, c.degree); }), reference,
        "polyfit " + what);
    double shift = 0.0;
    double scale = 0.0;
    const std::vector<double> design =
        reference_design(c.xs, c.degree, shift, scale);
    mismatches.compare(
        solve_outcome(
            [&] { return solve_row_major(design, c.degree + 1, c.ys); }),
        solve_outcome([&] {
          return reference_least_squares(design, c.degree + 1, c.ys);
        }),
        "solve_least_squares_columns " + what);
  }
  for (int i = 0; i < 500; ++i) {
    const auto cols = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const std::size_t rows = draw_rows(rng, std::max<std::size_t>(3, cols));
    const std::vector<double> a = draw_matrix(rng, rows, cols);
    std::vector<double> b(rows);
    for (double& v : b) v = rng.bernoulli(0.1) ? 0.0 : rng.normal();
    const Outcome reference =
        solve_outcome([&] { return reference_least_squares(a, cols, b); });
    if (!reference.error.empty()) ++threw;
    mismatches.compare(
        solve_outcome([&] { return solve_row_major(a, cols, b); }), reference,
        "general system " + std::to_string(i) + " (" + std::to_string(rows) +
            " x " + std::to_string(cols) + ")");
  }
  // Both outcomes occur in every shard: full-rank fits and rank-deficient
  // ones that throw.
  EXPECT_GT(threw, 100u);
  EXPECT_LT(threw, 1000u);
  EXPECT_EQ(mismatches.count, 0u) << mismatches.first;
}

INSTANTIATE_TEST_SUITE_P(Shards, LeastSquaresShardTest, ::testing::Range(0, 8));

// The fits the paper's evaluation runs: fit_all_classes on the
// amazon2015-sized trace (seed 1) equals the reference's quadratic fit of
// each class's samples, bit for bit.
TEST(LeastSquaresBitwiseTest, Amazon2015ClassFitsMatchRowMajorReference) {
  data::GeneratorParams params = data::GeneratorParams::amazon2015();
  params.seed = 1;
  const data::ReviewTrace trace = data::generate_trace(params);
  const data::WorkerMetrics metrics(trace);
  const effort::ClassFits fits = effort::fit_all_classes(metrics);
  const struct {
    data::WorkerClass cls;
    const effort::EffortFit& fit;
  } classes[] = {{data::WorkerClass::kHonest, fits.honest},
                 {data::WorkerClass::kNonCollusiveMalicious, fits.ncm},
                 {data::WorkerClass::kCollusiveMalicious, fits.cm}};
  for (const auto& [cls, fit] : classes) {
    SCOPED_TRACE(data::to_string(cls));
    const std::vector<data::EffortSample> samples =
        metrics.samples_of_class(cls);
    std::vector<double> xs, ys;
    for (const data::EffortSample& s : samples) {
      xs.push_back(s.effort);
      ys.push_back(s.feedback);
    }
    ASSERT_GT(xs.size(), 100u);
    // Each class's unconstrained quadratic is already concave and rising,
    // so the fit is the quadratic itself.
    ASSERT_FALSE(fit.fallback);
    ASSERT_FALSE(fit.projected);
    const Outcome reference =
        fit_outcome([&] { return reference_polyfit(xs, ys, 2); });
    EXPECT_EQ(fit_outcome([&] { return polyfit(xs, ys, 2); }), reference);
    EXPECT_EQ(outcome({fit.model.r0(), fit.model.r1(), fit.model.r2()},
                      fit.norm_of_residuals),
              reference);
  }
}

// ---------------------------------------------------------------------------
// The one-window kernel.

/// polyfit_quadratic_in_place on copies of xs and ys: its fit, or the error
/// "flagged" where it flags the window.
Outcome in_place_outcome(const std::vector<double>& xs,
                         const std::vector<double>& ys) {
  std::vector<double> x = xs;
  std::vector<double> y = ys;
  std::vector<double> work(xs.size());
  const std::optional<PolyFitResult> fit =
      polyfit_quadratic_in_place(x, y, work);
  if (!fit) {
    Outcome out;
    out.error = "flagged";
    return out;
  }
  return outcome(fit->polynomial.coefficients(), fit->norm_of_residuals);
}

/// Tallies the kernel against the reference over many windows: a fit must
/// match the reference bit for bit, and a flag is allowed only where the
/// reference throws or skips a reflection (polyfit then takes the generic
/// loop, which must match too).
struct WindowCheck {
  Mismatches mismatches;
  std::size_t fitted = 0;
  std::size_t flagged = 0;
  std::size_t reference_threw = 0;

  void run(const std::vector<double>& xs, const std::vector<double>& ys,
           const std::string& what) {
    const Outcome reference =
        fit_outcome([&] { return reference_polyfit(xs, ys, 2); });
    const Outcome kernel = in_place_outcome(xs, ys);
    if (!reference.error.empty()) {
      ++reference_threw;
      mismatches.compare(kernel, Outcome{{}, 0, "flagged"},
                         "in place (reference threw) " + what);
    } else if (kernel.error == "flagged") {
      ++flagged;
    } else {
      ++fitted;
      mismatches.compare(kernel, reference, "in place " + what);
    }
    mismatches.compare(fit_outcome([&] { return polyfit(xs, ys, 2); }),
                       reference, "polyfit " + what);
  }
};

enum class Window {
  kConcave,       // rising and concave: the fit the classes make
  kConvex,        // r2 > 0
  kDecreasing,    // r1 < 0
  kConstant,      // every x equal: rank-deficient, flagged
  kTwoValued,     // two distinct x: rank-deficient for a quadratic
  kSignedZero,    // x mixes -0.0 and 0.0 into a concave law
  kZeroFeedback,  // every y -0.0 or 0.0
};

constexpr Window kWindows[] = {Window::kConcave,    Window::kConvex,
                               Window::kDecreasing, Window::kConstant,
                               Window::kTwoValued,  Window::kSignedZero,
                               Window::kZeroFeedback};

/// m samples of a window shape with x and y in units of `scale`.
void draw_window(util::Rng& rng, std::size_t m, Window shape, double scale,
                 std::vector<double>& xs, std::vector<double>& ys) {
  xs.clear();
  ys.clear();
  for (std::size_t r = 0; r < m; ++r) {
    double t = rng.uniform(0.3, 3.5);
    if (shape == Window::kConstant) t = 1.75;
    if (shape == Window::kTwoValued) t = r % 2 == 0 ? 0.5 : 2.5;
    if (shape == Window::kSignedZero && r % 3 == 0) {
      t = r % 2 == 0 ? -0.0 : 0.0;
    }
    const double noise = 0.4 * rng.normal();
    double y = 0.0;
    switch (shape) {
      case Window::kConvex:
        y = 0.8 * t * t + 0.5 + noise;
        break;
      case Window::kDecreasing:
        y = 12.0 - 2.5 * t + noise;
        break;
      case Window::kZeroFeedback:
        y = r % 2 == 0 ? -0.0 : 0.0;
        break;
      default:
        y = -0.9 * t * t + 7.0 * t + 1.5 + noise;
        break;
    }
    xs.push_back(t * scale);
    ys.push_back(y * scale);
  }
}

// Every window shape at every length 3..12 and at 33..1,000, at scales
// 1e-6..1e6: the in-place kernel and polyfit(xs, ys, 2) against the
// reference. Constant windows must be flagged.
TEST(QuadraticWindowTest, InPlaceKernelMatchesRowMajorReference) {
  util::Rng rng(0x9a1d'0001ULL);
  WindowCheck check;
  std::vector<std::size_t> lengths;
  for (std::size_t m = 3; m <= 12; ++m) lengths.push_back(m);
  for (const std::size_t m : {33, 100, 255, 256, 257, 1000}) {
    lengths.push_back(m);
  }
  std::vector<double> xs, ys;
  for (const std::size_t m : lengths) {
    for (const double scale : {1e-6, 1e-3, 1.0, 1e3, 1e6}) {
      for (const Window shape : kWindows) {
        draw_window(rng, m, shape, scale, xs, ys);
        const std::string what = "window shape " +
                                 std::to_string(static_cast<int>(shape)) +
                                 ", " + std::to_string(m) + " samples, scale " +
                                 std::to_string(scale);
        check.run(xs, ys, what);
        if (shape == Window::kConstant) {
          EXPECT_EQ(in_place_outcome(xs, ys).error, "flagged") << what;
        }
      }
    }
  }
  EXPECT_EQ(check.mismatches.count, 0u) << check.mismatches.first;
  EXPECT_GT(check.fitted, 300u);
  EXPECT_GE(check.reference_threw, lengths.size() * 5);  // the constants
}

// One window the size of the amazon2015 honest class (101,835 samples).
TEST(QuadraticWindowTest, LargeWindowMatchesRowMajorReference) {
  util::Rng rng(0x9a1d'0002ULL);
  std::vector<double> xs, ys;
  draw_window(rng, 101835, Window::kConcave, 1.0, xs, ys);
  WindowCheck check;
  check.run(xs, ys, "101,835 samples");
  EXPECT_EQ(check.mismatches.count, 0u) << check.mismatches.first;
  EXPECT_EQ(check.fitted, 1u);
}

// The seeded systems of the shard test above, each fitted at degree 2:
// random, repeated-x, -0.0-laden, all-equal-x, all-zero-y and noisy-curve
// windows of 3..5000 samples.
TEST(QuadraticWindowTest, SeededWindowsMatchRowMajorReference) {
  util::Rng rng(0x9a1d'0003ULL);
  WindowCheck check;
  for (int i = 0; i < 2000; ++i) {
    const FitCase c = draw_fit_case(rng);
    check.run(c.xs, c.ys,
              "case " + std::to_string(i) + " (" + c.shape + ", " +
                  std::to_string(c.xs.size()) + " rows)");
  }
  EXPECT_EQ(check.mismatches.count, 0u) << check.mismatches.first;
  EXPECT_GT(check.fitted, 1000u);
  EXPECT_GT(check.reference_threw, 100u);
}

// The in-place entry runs polyfit's fault point with polyfit's key, before
// it touches the columns.
TEST(QuadraticWindowTest, InPlaceFaultPointElectsPolyfitsWindows) {
  util::FaultInjectorConfig chaos;
  chaos.enabled = true;
  chaos.seed = 11;
  chaos.site_rates["math.polyfit"] = 0.5;
  util::FaultInjector::instance().configure(chaos);
  util::Rng rng(0x9a1d'0004ULL);
  std::size_t injected = 0;
  std::vector<double> xs, ys;
  for (int i = 0; i < 64; ++i) {
    draw_window(rng, 3 + static_cast<std::size_t>(i), Window::kConcave, 1.0,
                xs, ys);
    bool polyfit_threw = false;
    try {
      polyfit(xs, ys, 2);
    } catch (const MathError&) {
      polyfit_threw = true;
    }
    std::vector<double> x = xs;
    std::vector<double> y = ys;
    std::vector<double> work(xs.size());
    bool in_place_threw = false;
    try {
      polyfit_quadratic_in_place(x, y, work);
    } catch (const MathError& e) {
      in_place_threw = true;
      EXPECT_EQ(std::string(e.what()), "injected fault at math.polyfit");
      EXPECT_EQ(x, xs);
      EXPECT_EQ(y, ys);
    }
    EXPECT_EQ(in_place_threw, polyfit_threw) << "window " << i;
    injected += in_place_threw ? 1 : 0;
  }
  util::FaultInjector::instance().disable();
  EXPECT_GT(injected, 10u);
  EXPECT_LT(injected, 54u);
}

TEST(QuadraticWindowTest, InPlaceChecksItsColumns) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {1.0, 4.0, 9.0};
  std::vector<double> work(2);
  EXPECT_THROW(polyfit_quadratic_in_place(x, y, work), Error);
  std::vector<double> two = {1.0, 2.0};
  std::vector<double> two_y = {1.0, 4.0};
  std::vector<double> two_work(2);
  EXPECT_THROW(polyfit_quadratic_in_place(two, two_y, two_work), Error);
}

}  // namespace
}  // namespace ccd::math
