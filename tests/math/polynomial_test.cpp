#include "math/polynomial.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ccd::math {
namespace {

TEST(PolynomialTest, EvaluationHorner) {
  const Polynomial p({1.0, -2.0, 3.0});  // 1 - 2x + 3x^2
  EXPECT_DOUBLE_EQ(p(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p(1.0), 2.0);
  EXPECT_DOUBLE_EQ(p(2.0), 9.0);
  EXPECT_DOUBLE_EQ(p(-1.0), 6.0);
}

TEST(PolynomialTest, DefaultIsZero) {
  const Polynomial p;
  EXPECT_EQ(p.coefficients(), std::vector<double>{0.0});
  EXPECT_DOUBLE_EQ(p(123.0), 0.0);
}

TEST(PolynomialTest, TrailingZerosTrimmed) {
  const Polynomial p({1.0, 2.0, 0.0, 0.0});
  EXPECT_EQ(p.coefficients(), (std::vector<double>{1.0, 2.0}));
}

TEST(PolynomialTest, CoefficientBeyondDegreeIsZero) {
  const Polynomial p({1.0, 2.0});
  EXPECT_DOUBLE_EQ(p.coefficient(5), 0.0);
}

TEST(PolynomialTest, FactoryHelpers) {
  EXPECT_DOUBLE_EQ(Polynomial::constant(4.0)(10.0), 4.0);
  EXPECT_DOUBLE_EQ(Polynomial::linear(1.0, 2.0)(3.0), 7.0);
  EXPECT_DOUBLE_EQ(Polynomial::quadratic(0.0, 0.0, 1.0)(3.0), 9.0);
}

TEST(PolynomialTest, Arithmetic) {
  const Polynomial a({1.0, 1.0});        // 1 + x
  const Polynomial b({0.0, 0.0, 2.0});   // 2x^2
  EXPECT_DOUBLE_EQ((a + b)(2.0), 11.0);
  EXPECT_DOUBLE_EQ((a * 3.0)(1.0), 6.0);
}

TEST(PolynomialTest, EmptyCoefficientsAreTheZeroPolynomial) {
  const Polynomial p(std::vector<double>{});
  EXPECT_EQ(p.coefficients(), std::vector<double>{0.0});
  EXPECT_EQ(Polynomial({0.0, 0.0}).coefficients(), std::vector<double>{0.0});
}

TEST(PolynomialTest, SumCancellationTrimsDegree) {
  const Polynomial a({1.0, 2.0, 3.0});    // 1 + 2x + 3x^2
  const Polynomial b({0.0, -2.0, -3.0});  // -2x - 3x^2
  EXPECT_EQ((a + b).coefficients(), std::vector<double>{1.0});
  EXPECT_EQ((a + Polynomial()).coefficients(), a.coefficients());
}

TEST(PolynomialTest, ScalingByZeroGivesZeroPolynomial) {
  const Polynomial p({4.0, -1.0, 2.0});
  EXPECT_EQ((p * 0.0).coefficients(), std::vector<double>{0.0});
  EXPECT_EQ((p * Polynomial()).coefficients(), std::vector<double>{0.0});
}

TEST(PolynomialTest, ProductDegreesAdd) {
  const Polynomial a({1.0, 1.0});  // 1 + x
  const Polynomial cube = a * a * a;
  EXPECT_EQ(cube.coefficients(), (std::vector<double>{1.0, 3.0, 3.0, 1.0}));
  EXPECT_EQ((cube * Polynomial::constant(2.0)).coefficients(),
            (cube * 2.0).coefficients());
  EXPECT_DOUBLE_EQ(cube(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(cube(2.0), 27.0);
}

TEST(PolynomialTest, ProductExpandsCorrectly) {
  const Polynomial a({1.0, 1.0});   // (1 + x)
  const Polynomial b({-1.0, 1.0});  // (x - 1)
  const Polynomial c = a * b;       // x^2 - 1
  EXPECT_DOUBLE_EQ(c.coefficient(0), -1.0);
  EXPECT_DOUBLE_EQ(c.coefficient(1), 0.0);
  EXPECT_DOUBLE_EQ(c.coefficient(2), 1.0);
}

}  // namespace
}  // namespace ccd::math
