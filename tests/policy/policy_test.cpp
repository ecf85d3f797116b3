// ccd::policy unit tests: backend construction and naming, the BiP
// backend's bitwise equivalence with the batch designer it wraps, the
// learners' serialize/restore contract (save_state at a round boundary,
// load into a fresh instance, continue bitwise-identically), and the
// learning invariant itself — on a stationary toy fleet both learners
// must extract more utility late than early.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "contract/worker_response.hpp"
#include "policy/policy.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ccd::policy {
namespace {

std::vector<contract::SubproblemSpec> toy_specs() {
  std::vector<contract::SubproblemSpec> specs;
  contract::SubproblemSpec honest;
  honest.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  honest.incentives = {1.0, 0.0};
  specs.push_back(honest);
  contract::SubproblemSpec malicious;
  malicious.psi = effort::QuadraticEffort(-0.8, 6.0, 1.5);
  malicious.incentives = {1.1, 0.3};
  malicious.weight = 0.9;
  specs.push_back(malicious);
  contract::SubproblemSpec community;
  community.psi = effort::QuadraticEffort(-1.2, 9.0, 2.5);
  community.incentives = {0.9, 0.5};
  specs.push_back(community);
  return specs;
}

std::vector<WorkerView> toy_views() {
  std::vector<WorkerView> views;
  for (const contract::SubproblemSpec& spec : toy_specs()) {
    WorkerView view;
    view.psi = spec.psi;
    view.beta = spec.incentives.beta;
    view.omega = spec.incentives.omega;
    view.weight = spec.weight;
    view.mu = spec.mu;
    view.intervals = spec.intervals;
    views.push_back(view);
  }
  return views;
}

/// One closed-loop round: exact best responses to the posted contracts,
/// rewards as the simulator computes them. Returns the fleet utility.
double play_round(Policy& policy, std::size_t round,
                  const std::vector<WorkerView>& views,
                  std::vector<contract::Contract>& contracts, util::Rng& rng,
                  const PostEnv& env) {
  EXPECT_TRUE(policy.post(round, true, views, contracts, rng, env));
  std::vector<RoundOutcome> outcomes(views.size());
  double total = 0.0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const contract::BestResponse response = contract::best_response(
        contracts[i], views[i].psi, {views[i].beta, views[i].omega});
    outcomes[i].active = true;
    outcomes[i].feedback = response.feedback;
    outcomes[i].reward = views[i].weight * response.feedback -
                         views[i].mu * response.compensation;
    total += outcomes[i].reward;
  }
  if (policy.learns()) policy.observe(round, outcomes, rng);
  return total;
}

void expect_contracts_bitwise_equal(
    const std::vector<contract::Contract>& a,
    const std::vector<contract::Contract>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].intervals(), b[i].intervals()) << "worker " << i;
    for (std::size_t l = 0; l <= a[i].intervals(); ++l) {
      EXPECT_EQ(a[i].payment(l), b[i].payment(l))
          << "worker " << i << " knot " << l;
      EXPECT_EQ(a[i].knot(l), b[i].knot(l))
          << "worker " << i << " knot " << l;
    }
  }
}

TEST(PolicyKindTest, RoundTripsThroughStrings) {
  for (const Kind kind :
       {Kind::kBip, Kind::kZoomingBandit, Kind::kPostedPrice}) {
    EXPECT_EQ(kind_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(kind_from_string("bip"), Kind::kBip);
  EXPECT_EQ(kind_from_string("bandit"), Kind::kZoomingBandit);
  EXPECT_EQ(kind_from_string("posted"), Kind::kPostedPrice);
  EXPECT_THROW(kind_from_string("oracle"), ConfigError);
  EXPECT_THROW(kind_from_string(""), ConfigError);
}

TEST(PolicyKindTest, MakePolicyInstantiatesTheConfiguredBackend) {
  for (const Kind kind :
       {Kind::kBip, Kind::kZoomingBandit, Kind::kPostedPrice}) {
    PolicyConfig config;
    config.kind = kind;
    const std::unique_ptr<Policy> policy = make_policy(config);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_EQ(policy->learns(), kind != Kind::kBip);
  }
}

TEST(PolicyKindTest, ConfigValidationRejectsBadKnobs) {
  PolicyConfig config;
  config.payment_cap = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  config.price_levels = 1;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  config.peer_tolerance = 2.5;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  config.zoom_confidence = -0.1;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(BipPolicyTest, MatchesTheBatchDesignerBitwise) {
  const std::vector<contract::SubproblemSpec> specs = toy_specs();
  const std::vector<contract::DesignResult> reference =
      contract::design_contracts_batch(specs);
  std::vector<contract::Contract> expected;
  for (const contract::DesignResult& result : reference) {
    expected.push_back(result.contract);
  }

  PolicyConfig config;
  const std::unique_ptr<Policy> bip = make_policy(config);
  std::vector<contract::Contract> contracts(specs.size());
  util::Rng rng(7);
  contract::DesignCache cache;
  PostEnv env;
  env.cache = &cache;
  ASSERT_TRUE(bip->post(0, true, toy_views(), contracts, rng, env));
  expect_contracts_bitwise_equal(contracts, expected);

  // redesign=false must keep the previous round's contracts untouched.
  std::vector<contract::Contract> kept = contracts;
  ASSERT_TRUE(bip->post(1, false, toy_views(), kept, rng, env));
  expect_contracts_bitwise_equal(kept, expected);
}

// Ingest sessions and the simulator hand BiP a token; a post cut short
// reports false and leaves the posted contracts as they were, so the
// caller keeps them until its next refit round.
TEST(BipPolicyTest, CancelledPostKeepsPreviousContracts) {
  PolicyConfig config;
  const std::unique_ptr<Policy> bip = make_policy(config);
  util::Rng rng(7);
  std::vector<contract::Contract> contracts(toy_specs().size());
  ASSERT_TRUE(bip->post(0, true, toy_views(), contracts, rng, PostEnv{}));
  const std::vector<contract::Contract> posted = contracts;

  std::vector<WorkerView> shifted = toy_views();
  for (WorkerView& view : shifted) view.mu *= 2.0;  // would redesign all
  util::CancellationToken token;
  token.request_cancel();
  PostEnv env;
  env.cancel = &token;
  EXPECT_FALSE(bip->post(1, true, shifted, contracts, rng, env));
  expect_contracts_bitwise_equal(contracts, posted);

  // Uncancelled, the same views do redesign: the kept contracts above
  // are the cancellation's doing, not an unchanged design.
  ASSERT_TRUE(bip->post(2, true, shifted, contracts, rng, PostEnv{}));
  bool changed = false;
  for (std::size_t i = 0; i < contracts.size(); ++i) {
    for (const double feedback : {5.0, 10.0, 15.0}) {
      if (contracts[i].pay(feedback) != posted[i].pay(feedback)) {
        changed = true;
      }
    }
  }
  EXPECT_TRUE(changed);
}

// BiP is deterministic given its views and draws nothing from the caller's
// generator: posting through it leaves an ingest session's checkpointed
// RNG stream untouched, on refit rounds and on the rounds between.
TEST(BipPolicyTest, DrawsNothingFromTheRng) {
  PolicyConfig config;
  const std::unique_ptr<Policy> bip = make_policy(config);
  util::Rng rng(99);
  util::Rng untouched(99);
  std::vector<contract::Contract> contracts(toy_specs().size());
  for (std::size_t round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        bip->post(round, round != 1, toy_views(), contracts, rng, PostEnv{}));
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(BipPolicyTest, StateIsEmptyAndLoadAcceptsIt) {
  PolicyConfig config;
  const std::unique_ptr<Policy> bip = make_policy(config);
  EXPECT_TRUE(bip->save_state().empty());
  EXPECT_NO_THROW(bip->load_state(""));
}

TEST(ThresholdContractTest, PaysExactlyAtTheThreshold) {
  const effort::QuadraticEffort psi(-1.0, 8.0, 2.0);
  const double threshold = 1.5;
  const contract::Contract c = threshold_contract(psi, threshold, 5.0);
  ASSERT_FALSE(c.is_zero());
  // Clearing the threshold earns the payment; staying well below earns ~0.
  EXPECT_NEAR(c.pay(psi(threshold) + 1e-6), 5.0, 1e-9);
  EXPECT_NEAR(c.pay(psi(0.0)), 0.0, 1e-9);
  // Degenerate arms collapse to the zero contract.
  EXPECT_TRUE(threshold_contract(psi, 0.0, 5.0).is_zero());
  EXPECT_TRUE(threshold_contract(psi, 1.0, 0.0).is_zero());
}

TEST(ThresholdContractTest, InvertPsiIsAnInverseOnTheUsableDomain) {
  const effort::QuadraticEffort psi(-1.0, 8.0, 2.0);
  for (const double y : {0.1, 0.7, 1.9, 3.1}) {
    EXPECT_NEAR(invert_psi(psi, psi(y)), y, 1e-6);
  }
  // Targets below psi(0) clamp to 0; unreachable targets clamp to the
  // domain end.
  EXPECT_EQ(invert_psi(psi, psi(0.0) - 1.0), 0.0);
  EXPECT_NEAR(invert_psi(psi, 1e9), psi.usable_domain(), 1e-9);
}

class LearnerPolicyTest : public ::testing::TestWithParam<Kind> {};

INSTANTIATE_TEST_SUITE_P(Backends, LearnerPolicyTest,
                         ::testing::Values(Kind::kZoomingBandit,
                                           Kind::kPostedPrice),
                         [](const auto& suite_info) {
                           return std::string(to_string(suite_info.param));
                         });

TEST_P(LearnerPolicyTest, LearningImprovesOnAStationaryFleet) {
  PolicyConfig config;
  config.kind = GetParam();
  const std::unique_ptr<Policy> learner = make_policy(config);
  const std::vector<WorkerView> views = toy_views();
  std::vector<contract::Contract> contracts(views.size());
  util::Rng rng(11);
  const PostEnv env;

  constexpr std::size_t kRounds = 400;
  constexpr std::size_t kWindow = kRounds / 4;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t t = 0; t < kRounds; ++t) {
    const double utility =
        play_round(*learner, t, views, contracts, rng, env);
    if (t < kWindow) early += utility;
    if (t >= kRounds - kWindow) late += utility;
  }
  EXPECT_GT(late, early) << to_string(GetParam());
}

TEST_P(LearnerPolicyTest, SaveLoadContinuesBitwiseIdentically) {
  PolicyConfig config;
  config.kind = GetParam();
  const std::unique_ptr<Policy> original = make_policy(config);
  const std::vector<WorkerView> views = toy_views();
  std::vector<contract::Contract> contracts(views.size());
  util::Rng rng(3);
  const PostEnv env;

  for (std::size_t t = 0; t < 60; ++t) {
    play_round(*original, t, views, contracts, rng, env);
  }
  const std::string state = original->save_state();
  EXPECT_FALSE(state.empty());

  const std::unique_ptr<Policy> restored = make_policy(config);
  restored->load_state(state);

  // Both instances must now post and learn identically, round for round.
  // The learners draw nothing from the Rng, but hand each its own stream
  // anyway to mirror the simulator's calling convention.
  std::vector<contract::Contract> a(views.size());
  std::vector<contract::Contract> b(views.size());
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  for (std::size_t t = 60; t < 90; ++t) {
    play_round(*original, t, views, a, rng_a, env);
    play_round(*restored, t, views, b, rng_b, env);
    expect_contracts_bitwise_equal(a, b);
  }
  EXPECT_EQ(original->save_state(), restored->save_state());
}

TEST_P(LearnerPolicyTest, RejectsForeignOrCorruptState) {
  PolicyConfig config;
  config.kind = GetParam();
  const std::unique_ptr<Policy> learner = make_policy(config);

  // State saved by the OTHER learner backend.
  PolicyConfig other_config;
  other_config.kind = GetParam() == Kind::kZoomingBandit
                          ? Kind::kPostedPrice
                          : Kind::kZoomingBandit;
  const std::unique_ptr<Policy> other = make_policy(other_config);
  const std::vector<WorkerView> views = toy_views();
  std::vector<contract::Contract> contracts(views.size());
  util::Rng rng(9);
  for (std::size_t t = 0; t < 8; ++t) {
    play_round(*other, t, views, contracts, rng, {});
  }
  EXPECT_THROW(learner->load_state(other->save_state()), DataError);
  EXPECT_THROW(learner->load_state("garbage"), DataError);

  // Empty string is the documented fresh start.
  EXPECT_NO_THROW(learner->load_state(""));
}

TEST_P(LearnerPolicyTest, InactiveWorkersGetZeroContracts) {
  PolicyConfig config;
  config.kind = GetParam();
  const std::unique_ptr<Policy> learner = make_policy(config);
  std::vector<WorkerView> views = toy_views();
  views[1].active = false;
  std::vector<contract::Contract> contracts(views.size());
  util::Rng rng(13);
  ASSERT_TRUE(learner->post(0, true, views, contracts, rng, {}));
  EXPECT_TRUE(contracts[1].is_zero());
  EXPECT_FALSE(contracts[0].is_zero());
}

}  // namespace
}  // namespace ccd::policy
