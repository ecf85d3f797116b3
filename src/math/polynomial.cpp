#include "math/polynomial.hpp"

#include <algorithm>
#include <utility>

namespace ccd::math {
namespace {

void trim_trailing_zeros(std::vector<double>& c) {
  while (c.size() > 1 && c.back() == 0.0) c.pop_back();
}

}  // namespace

Polynomial::Polynomial(std::vector<double> coefficients)
    : coefficients_(std::move(coefficients)) {
  if (coefficients_.empty()) coefficients_ = {0.0};
  trim_trailing_zeros(coefficients_);
}

Polynomial Polynomial::constant(double c) { return Polynomial({c}); }

Polynomial Polynomial::linear(double intercept, double slope) {
  return Polynomial({intercept, slope});
}

Polynomial Polynomial::quadratic(double c0, double c1, double c2) {
  return Polynomial({c0, c1, c2});
}

double Polynomial::coefficient(std::size_t power) const {
  return power < coefficients_.size() ? coefficients_[power] : 0.0;
}

double Polynomial::operator()(double x) const {
  double acc = 0.0;
  for (std::size_t i = coefficients_.size(); i > 0; --i) {
    acc = acc * x + coefficients_[i - 1];
  }
  return acc;
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  std::vector<double> out(
      std::max(coefficients_.size(), other.coefficients_.size()), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = coefficient(i) + other.coefficient(i);
  }
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  std::vector<double> out(
      coefficients_.size() + other.coefficients_.size() - 1, 0.0);
  for (std::size_t i = 0; i < coefficients_.size(); ++i) {
    for (std::size_t j = 0; j < other.coefficients_.size(); ++j) {
      out[i + j] += coefficients_[i] * other.coefficients_[j];
    }
  }
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator*(double scalar) const {
  std::vector<double> out = coefficients_;
  for (double& c : out) c *= scalar;
  return Polynomial(std::move(out));
}

}  // namespace ccd::math
