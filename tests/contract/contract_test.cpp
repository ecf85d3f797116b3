#include "contract/contract.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ccd::contract {
namespace {

const effort::QuadraticEffort kPsi(-1.0, 8.0, 2.0);

Contract simple_contract() {
  // delta = 1; knots at psi(0)=2, psi(1)=9, psi(2)=14; payments 0, 1, 3.
  return Contract::on_effort_grid(kPsi, 1.0, {0.0, 1.0, 3.0});
}

TEST(ContractTest, ZeroContractPaysNothing) {
  const Contract zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.intervals(), 0u);
  EXPECT_DOUBLE_EQ(zero.pay(123.0), 0.0);
  EXPECT_DOUBLE_EQ(zero.max_payment(), 0.0);
}

TEST(ContractTest, KnotsFollowEffortGrid) {
  const Contract c = simple_contract();
  EXPECT_EQ(c.intervals(), 2u);
  EXPECT_DOUBLE_EQ(c.knot(0), 2.0);
  EXPECT_DOUBLE_EQ(c.knot(1), 9.0);
  EXPECT_DOUBLE_EQ(c.knot(2), 14.0);
  EXPECT_DOUBLE_EQ(c.delta(), 1.0);
}

TEST(ContractTest, PaymentsAtKnots) {
  const Contract c = simple_contract();
  EXPECT_DOUBLE_EQ(c.pay(2.0), 0.0);
  EXPECT_DOUBLE_EQ(c.pay(9.0), 1.0);
  EXPECT_DOUBLE_EQ(c.pay(14.0), 3.0);
  EXPECT_DOUBLE_EQ(c.payment(1), 1.0);
  EXPECT_DOUBLE_EQ(c.max_payment(), 3.0);
}

TEST(ContractTest, LinearInterpolationBetweenKnots) {
  const Contract c = simple_contract();
  // Midpoint of [2, 9] in feedback: pay 0.5.
  EXPECT_DOUBLE_EQ(c.pay(5.5), 0.5);
  // Quarter of [9, 14]: 1 + 2 * 0.25.
  EXPECT_DOUBLE_EQ(c.pay(10.25), 1.5);
}

TEST(ContractTest, SaturatesOutsideKnotRange) {
  const Contract c = simple_contract();
  EXPECT_DOUBLE_EQ(c.pay(0.0), 0.0);    // below d_0
  EXPECT_DOUBLE_EQ(c.pay(100.0), 3.0);  // above d_m
}

TEST(ContractTest, SlopesMatchDifferences) {
  const Contract c = simple_contract();
  EXPECT_DOUBLE_EQ(c.slope(1), 1.0 / 7.0);   // (1-0)/(9-2)
  EXPECT_DOUBLE_EQ(c.slope(2), 2.0 / 5.0);   // (3-1)/(14-9)
  EXPECT_THROW(c.slope(0), Error);
  EXPECT_THROW(c.slope(3), Error);
}

TEST(ContractTest, MonotonicityEnforced) {
  EXPECT_THROW(Contract::on_effort_grid(kPsi, 1.0, {0.0, 2.0, 1.0}), Error);
}

TEST(ContractTest, NegativePaymentsRejected) {
  EXPECT_THROW(Contract::on_effort_grid(kPsi, 1.0, {-1.0, 0.0, 1.0}), Error);
}

TEST(ContractTest, GridPastPeakRejected) {
  // peak of psi at y=4; m=3 with delta 1.5 reaches 4.5.
  EXPECT_THROW(Contract::on_effort_grid(kPsi, 1.5, {0.0, 1.0, 2.0, 3.0}),
               Error);
}

TEST(ContractTest, DirectConstructionValidation) {
  EXPECT_THROW(Contract(0.0, {0.0, 1.0}, {0.0, 1.0}), Error);   // bad delta
  EXPECT_THROW(Contract(1.0, {0.0}, {0.0}), Error);             // one knot
  EXPECT_THROW(Contract(1.0, {1.0, 1.0}, {0.0, 1.0}), Error);   // knots equal
  EXPECT_THROW(Contract(1.0, {0.0, 1.0}, {0.0}), Error);        // mismatch
}

TEST(ContractTest, ToStringDescribes) {
  EXPECT_EQ(Contract().to_string(), "Contract{zero}");
  const std::string s = simple_contract().to_string(1);
  EXPECT_NE(s.find("delta=1.0"), std::string::npos);
  EXPECT_NE(s.find("(2.0->0.0)"), std::string::npos);
}

}  // namespace
}  // namespace ccd::contract
