#include "core/requester.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace ccd::core {
namespace {

TEST(RequesterConfigTest, DefaultsValidate) {
  EXPECT_NO_THROW(RequesterConfig{}.validate());
}

TEST(RequesterConfigTest, CatchesBadFields) {
  RequesterConfig c;
  c.rho = 0.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.mu = -1.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.beta = 0.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.intervals = 0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.accuracy_floor = 0.0;
  EXPECT_THROW(c.validate(), Error);
}

TEST(FeedbackWeightTest, MatchesEq5) {
  RequesterConfig c;
  c.rho = 1.0;
  c.kappa = 0.1;
  c.gamma = 0.1;
  c.weight_cap = 100.0;
  // w = 1/0.5 - 0.1*0.4 - 0.1*3 = 2 - 0.04 - 0.3.
  EXPECT_NEAR(feedback_weight(c, 0.5, 0.4, 3), 1.66, 1e-12);
}

TEST(FeedbackWeightTest, FloorsAccuracyDistance) {
  RequesterConfig c;
  c.accuracy_floor = 0.25;
  c.weight_cap = 100.0;
  EXPECT_DOUBLE_EQ(feedback_weight(c, 0.0, 0.0, 0),
                   feedback_weight(c, 0.25, 0.0, 0));
}

TEST(FeedbackWeightTest, CapsWeight) {
  RequesterConfig c;
  c.weight_cap = 4.0;
  EXPECT_DOUBLE_EQ(feedback_weight(c, 0.25, 0.0, 0), 4.0);
}

TEST(FeedbackWeightTest, PenaltiesReduceWeight) {
  RequesterConfig c;
  const double base = feedback_weight(c, 1.0, 0.0, 0);
  EXPECT_LT(feedback_weight(c, 1.0, 1.0, 0), base);
  EXPECT_LT(feedback_weight(c, 1.0, 0.0, 5), base);
  EXPECT_LT(feedback_weight(c, 1.0, 1.0, 5),
            feedback_weight(c, 1.0, 1.0, 1));
}

TEST(FeedbackWeightTest, CanGoNegativeForBadWorkers) {
  RequesterConfig c;
  c.gamma = 0.2;
  // Very inaccurate with many partners: weight below zero => exclusion.
  EXPECT_LT(feedback_weight(c, 4.0, 1.0, 10), 0.0);
}

TEST(FeedbackWeightTest, ValidatesArguments) {
  const RequesterConfig c;
  EXPECT_THROW(feedback_weight(c, -1.0, 0.0, 0), Error);
  EXPECT_THROW(feedback_weight(c, 1.0, -0.1, 0), Error);
  EXPECT_THROW(feedback_weight(c, 1.0, 1.1, 0), Error);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Requester make_requester(double ema_alpha, std::size_t workers,
                         policy::Kind kind = policy::Kind::kBip) {
  policy::PolicyConfig policy;
  policy.kind = kind;
  return Requester(RequesterConfig{}, ema_alpha, 0.5, policy, workers);
}

TEST(RequesterTest, StartsFromNeutralBeliefs) {
  const Requester r = make_requester(0.3, 3);
  ASSERT_EQ(r.workers(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.est_accuracy()[i], RequesterConfig{}.accuracy_floor);
    EXPECT_EQ(r.est_malicious()[i], 0.05);
    EXPECT_TRUE(r.contracts()[i].is_zero());
    EXPECT_EQ(r.psi(i).r2(), -1.0);
    EXPECT_EQ(bits(r.weight(i)),
              bits(feedback_weight(RequesterConfig{}, r.est_accuracy()[i],
                                   r.est_malicious()[i], 0)));
  }
  EXPECT_FALSE(r.learns());
  EXPECT_TRUE(make_requester(0.3, 1, policy::Kind::kZoomingBandit).learns());
}

// observe() is the EMA of the accuracy sample and of the sigmoid
// deviation signal 1 / (1 + exp(-4 (sample - 0.9))), chained round after
// round. At rate 1/2 every product by the rate is exact, so the reference
// below rounds like the library whether or not a build fuses
// multiply-adds: the comparison is bit for bit.
TEST(RequesterTest, ObserveIsTheEmaOfTheSampleAndItsSigmoidBitForBit) {
  constexpr double kAlpha = 0.5;
  Requester r = make_requester(kAlpha, 2);
  double accuracy = RequesterConfig{}.accuracy_floor;
  double malicious = 0.05;
  for (const double sample : {1.6, 0.3, 0.0, 0.9, 2.75, 0.125}) {
    r.observe(1, sample);
    accuracy = (1.0 - kAlpha) * accuracy + kAlpha * sample;
    const double signal = 1.0 / (1.0 + std::exp(-4.0 * (sample - 0.9)));
    malicious = (1.0 - kAlpha) * malicious + kAlpha * signal;
    EXPECT_EQ(bits(r.est_accuracy()[1]), bits(accuracy)) << sample;
    EXPECT_EQ(bits(r.est_malicious()[1]), bits(malicious)) << sample;
  }
  // Worker 0 never observed: its estimates did not move.
  EXPECT_EQ(r.est_accuracy()[0], RequesterConfig{}.accuracy_floor);
  EXPECT_EQ(r.est_malicious()[0], 0.05);

  // Rate 1 keeps only the last sample.
  Requester last = make_requester(1.0, 1);
  last.observe(0, 1.7);
  EXPECT_EQ(last.est_accuracy()[0], 1.7);
  EXPECT_EQ(bits(last.est_malicious()[0]),
            bits(1.0 / (1.0 + std::exp(-4.0 * (1.7 - 0.9)))));
}

TEST(RequesterTest, ValidateRejectsEachOutOfRangeField) {
  const RequesterConfig config;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(Requester::validate(config, 1.0, {0.0, 3.5}, {0.0, 1.0}));
  for (const double alpha : {0.0, -0.1, 1.5, 7.0, nan}) {
    EXPECT_THROW(Requester::validate(config, alpha), ConfigError) << alpha;
  }
  for (const double accuracy : {-0.1, nan, inf}) {
    EXPECT_THROW(Requester::validate(config, 0.3, {0.3, accuracy}, {}),
                 ConfigError)
        << accuracy;
  }
  for (const double malicious : {-0.01, 1.01, 2.0, nan}) {
    EXPECT_THROW(Requester::validate(config, 0.3, {}, {malicious}),
                 ConfigError)
        << malicious;
  }
  RequesterConfig bad_mu;
  bad_mu.mu = 0.0;
  EXPECT_THROW(Requester::validate(bad_mu, 0.3), ConfigError);
  // The constructor validates its parameters through the same check.
  EXPECT_THROW(Requester(bad_mu, 0.3, 0.5, policy::PolicyConfig{}, 1),
               ConfigError);
  EXPECT_THROW(make_requester(0.0, 1), ConfigError);
}

TEST(RequesterTest, RestoreChecksTheEstimatesItIsHanded) {
  Requester r = make_requester(0.3, 2);
  const std::vector<contract::Contract> zero(2);
  EXPECT_THROW(r.restore({0.3, 0.3}, {0.1, 2.0}, zero, ""), ConfigError);
  EXPECT_THROW(r.restore({0.3}, {0.1}, {zero[0]}, ""), Error);  // too few
  EXPECT_EQ(r.est_malicious()[1], 0.05);  // nothing applied
  r.restore({0.7, 1.9}, {0.1, 0.8}, zero, "");
  EXPECT_EQ(r.est_accuracy()[1], 1.9);
  EXPECT_EQ(r.est_malicious()[1], 0.8);
}

// post() fills one view per worker from the beliefs: a churned-out worker
// is posted weight 0 (BiP answers with the zero contract), an active one
// its Eq. 5 weight under its believed partners.
TEST(RequesterTest, PostViewsTheBeliefsAndSkipsInactiveWorkers) {
  Requester r = make_requester(0.3, 3);
  r.believe(1, effort::QuadraticEffort(-1.0, 8.0, 2.0), 1.0, 2);
  util::Rng rng(1);
  ASSERT_TRUE(r.post(0, true, rng, policy::PostEnv{},
                     [](std::size_t i) { return i != 2; }));
  EXPECT_EQ(bits(r.posted_weight(0)), bits(r.weight(0)));
  EXPECT_EQ(bits(r.posted_weight(1)),
            bits(feedback_weight(RequesterConfig{}, r.est_accuracy()[1],
                                 r.est_malicious()[1], 2)));
  EXPECT_LT(r.posted_weight(1), r.posted_weight(0));
  EXPECT_EQ(r.posted_weight(2), 0.0);
  EXPECT_FALSE(r.contracts()[0].is_zero());
  EXPECT_TRUE(r.contracts()[2].is_zero());
}

}  // namespace
}  // namespace ccd::core
