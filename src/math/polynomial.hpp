// Polynomials with ascending coefficients: p(x) = c0 + c1 x + c2 x^2 + ...
#pragma once

#include <cstddef>
#include <vector>

namespace ccd::math {

class Polynomial {
 public:
  Polynomial() = default;

  /// Coefficients in ascending order of power; trailing zeros are trimmed.
  explicit Polynomial(std::vector<double> coefficients);

  static Polynomial constant(double c);
  static Polynomial linear(double intercept, double slope);
  static Polynomial quadratic(double c0, double c1, double c2);

  const std::vector<double>& coefficients() const { return coefficients_; }

  /// coefficient of x^power (0 beyond the stored degree).
  double coefficient(std::size_t power) const;

  /// Horner evaluation.
  double operator()(double x) const;

  Polynomial operator+(const Polynomial& other) const;
  Polynomial operator*(const Polynomial& other) const;
  Polynomial operator*(double scalar) const;

 private:
  std::vector<double> coefficients_{0.0};
};

}  // namespace ccd::math
