// ccd::scenario unit coverage: spec parsing/validation (ConfigError must
// name the offending values), preset catalog, deterministic fleet
// construction, and the ScenarioHook's per-policy / per-adversary
// behaviours in isolation (the matrix and determinism integration tests
// cover whole runs).
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "contract/contract.hpp"
#include "effort/effort_model.hpp"
#include "util/error.hpp"

namespace ccd::scenario {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "unit";
  spec.workers = 10;
  spec.malicious = 3;
  spec.community_sizes = {2};
  spec.rounds = 6;
  spec.seed = 5;
  return spec;
}

contract::Contract paying_contract(double payment) {
  return contract::Contract::on_effort_grid(
      effort::QuadraticEffort(-1.0, 8.0, 2.0), 1.0, {0.0, payment});
}

TEST(PolicyTest, RoundTripsThroughStrings) {
  for (const Policy policy : all_policies()) {
    EXPECT_EQ(policy_from_string(to_string(policy)), policy);
  }
  EXPECT_EQ(all_policies().size(), 6u);
  EXPECT_THROW(policy_from_string("greedy"), ConfigError);
}

TEST(ScenarioSpecTest, PresetCatalogCoversAllAdversaries) {
  const std::vector<ScenarioSpec> specs = ScenarioSpec::matrix();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "paper");
  EXPECT_GT(specs[1].sybil, 0u);         // sybil
  EXPECT_TRUE(specs[2].adaptive);        // adaptive
  EXPECT_TRUE(specs[3].misreport);       // misreport
  EXPECT_GT(specs[4].churn_lifetime_mean, 0.0);  // churn
  EXPECT_TRUE(specs[5].adaptive && specs[5].misreport &&
              specs[5].sybil > 0 && specs[5].churn_lifetime_mean > 0.0);
  EXPECT_THROW(ScenarioSpec::preset("zerg"), ConfigError);
}

TEST(ScenarioSpecTest, ValidateNamesOversizedCommunities) {
  ScenarioSpec spec = small_spec();
  spec.community_sizes = {4, 4};
  spec.malicious = 6;
  try {
    spec.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4,4"), std::string::npos) << what;
    EXPECT_NE(what.find("8"), std::string::npos) << what;
    EXPECT_NE(what.find("6"), std::string::npos) << what;
  }
}

TEST(ScenarioSpecTest, ValidateNamesMaliciousOverrunningPopulation) {
  ScenarioSpec spec = small_spec();
  spec.workers = 5;
  spec.malicious = 5;
  spec.community_sizes.clear();
  try {
    spec.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5"), std::string::npos) << what;
  }
}

TEST(ScenarioSpecTest, ApplyParamsParsesOverrides) {
  ScenarioSpec spec = ScenarioSpec::preset("sybil");
  util::ParamMap params;
  params.set("workers", "18");
  params.set("malicious", "6");
  params.set("communities", "2,4");
  params.set("sybil", "3");
  params.set("rounds", "10");
  params.set("adaptive", "1");
  spec.apply_params(params);
  EXPECT_EQ(spec.workers, 18u);
  EXPECT_EQ(spec.malicious, 6u);
  EXPECT_EQ(spec.community_sizes, (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(spec.sybil, 3u);
  EXPECT_EQ(spec.rounds, 10u);
  EXPECT_TRUE(spec.adaptive);
  EXPECT_EQ(spec.planted_malicious(), 9u);
}

// Every range check is a ConfigError (exit 2), like the budget checks
// above, not a failed CCD_CHECK.
TEST(ScenarioSpecTest, RangeChecksThrowConfigError) {
  const auto expect_config_error = [](ScenarioSpec spec, const char* what) {
    EXPECT_THROW(spec.validate(), ConfigError) << what;
  };
  ScenarioSpec spec = small_spec();
  spec.community_sizes = {1};
  expect_config_error(spec, "one-member community");
  spec = small_spec();
  spec.sybil = 1;
  expect_config_error(spec, "one-identity swarm");
  spec = small_spec();
  spec.sybil_beta = 0.0;
  expect_config_error(spec, "sybil_beta");
  spec = small_spec();
  spec.sybil_boost = -1.0;
  expect_config_error(spec, "sybil_boost");
  spec = small_spec();
  spec.adaptive_boost = -1.0;
  expect_config_error(spec, "adaptive_boost");
  spec = small_spec();
  spec.misreport_slack = -1.0;
  expect_config_error(spec, "misreport_slack");
  spec = small_spec();
  spec.churn_arrival_mean = -1.0;
  expect_config_error(spec, "churn_arrival_mean");
  spec = small_spec();
  spec.churn_lifetime_mean = -1.0;
  expect_config_error(spec, "churn_lifetime_mean");
  spec = small_spec();
  spec.rounds = 0;
  expect_config_error(spec, "rounds");
  spec = small_spec();
  spec.fixed_payment = -1.0;
  expect_config_error(spec, "fixed_payment");
  spec = small_spec();
  spec.fixed_effort = 0.0;
  expect_config_error(spec, "fixed_effort");
  EXPECT_NO_THROW(small_spec().validate());
}

TEST(ScenarioSpecTest, ApplyParamsRejectsBadCommunityCsv) {
  ScenarioSpec spec = small_spec();
  util::ParamMap params;
  params.set("communities", "2,x");
  try {
    spec.apply_params(params);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("x"), std::string::npos);
  }
  util::ParamMap tiny;
  tiny.set("communities", "1");
  EXPECT_THROW(small_spec().apply_params(tiny), ConfigError);
}

TEST(FleetTest, LayoutMatchesSpec) {
  ScenarioSpec spec = small_spec();
  spec.sybil = 3;
  spec.misreport = true;
  const Fleet fleet = build_fleet(spec);

  ASSERT_EQ(fleet.workers.size(), spec.workers + spec.sybil);
  // Layout: 1 NCM, one 2-member community, 3 sybils, 7 honest.
  ASSERT_EQ(fleet.communities.size(), 2u);
  EXPECT_EQ(fleet.communities[0].size(), 2u);
  EXPECT_EQ(fleet.communities[1].size(), 3u);  // the swarm comes last
  EXPECT_EQ(fleet.sybils, fleet.communities[1]);
  EXPECT_EQ(fleet.misreporters.size(), 1u);  // the NCM block misreports

  std::size_t malicious = 0;
  for (const std::uint8_t flag : fleet.is_malicious) malicious += flag;
  EXPECT_EQ(malicious, spec.planted_malicious());
  for (const std::size_t idx : fleet.sybils) {
    EXPECT_EQ(fleet.workers[idx].beta, spec.sybil_beta);
    EXPECT_EQ(fleet.workers[idx].partners, spec.sybil - 1);
  }
}

TEST(FleetTest, ChurnWindowsAreDeterministicInSeed) {
  ScenarioSpec spec = small_spec();
  spec.churn_arrival_mean = 2.0;
  spec.churn_lifetime_mean = 3.0;
  const Fleet a = build_fleet(spec);
  const Fleet b = build_fleet(spec);
  ASSERT_EQ(a.workers.size(), b.workers.size());
  bool any_window = false;
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_EQ(a.workers[i].arrive_round, b.workers[i].arrive_round);
    EXPECT_EQ(a.workers[i].depart_round, b.workers[i].depart_round);
    if (a.workers[i].arrive_round > 0 || a.workers[i].depart_round) {
      any_window = true;
    }
  }
  EXPECT_TRUE(any_window);  // the means above make a static fleet wildly unlikely
}

TEST(ScenarioHookTest, FixedPolicyOverridesEveryContract) {
  const ScenarioSpec spec = small_spec();
  const Fleet fleet = build_fleet(spec);
  ScenarioHook hook(spec, fleet, Policy::kFixed);
  std::vector<contract::Contract> contracts(fleet.workers.size(),
                                            paying_contract(9.0));
  const std::vector<double> est(fleet.workers.size(), 0.0);
  util::Rng rng(1);
  hook.on_contracts_posted(0, true, contracts, est, rng);
  for (const contract::Contract& c : contracts) {
    EXPECT_EQ(c.max_payment(), spec.fixed_payment);
  }
}

TEST(ScenarioHookTest, ExcludePolicyZeroesSuspectedWorkers) {
  const ScenarioSpec spec = small_spec();
  const Fleet fleet = build_fleet(spec);
  ScenarioHook hook(spec, fleet, Policy::kExclude);
  std::vector<contract::Contract> contracts(fleet.workers.size(),
                                            paying_contract(4.0));
  std::vector<double> est(fleet.workers.size(), 0.1);
  est[0] = 0.9;
  util::Rng rng(1);
  hook.on_contracts_posted(0, true, contracts, est, rng);
  EXPECT_TRUE(contracts[0].is_zero());
  for (std::size_t i = 1; i < contracts.size(); ++i) {
    EXPECT_FALSE(contracts[i].is_zero()) << "worker " << i;
  }
}

TEST(ScenarioHookTest, SybilBoostTouchesOnlyTheSwarm) {
  ScenarioSpec spec = small_spec();
  spec.sybil = 3;
  spec.sybil_boost = 50.0;  // huge mean: a zero draw would be astronomical
  const Fleet fleet = build_fleet(spec);
  ScenarioHook hook(spec, fleet, Policy::kDynamic);
  util::Rng rng(9);
  const std::size_t sybil = fleet.sybils.front();
  const std::size_t honest = fleet.workers.size() - 1;
  EXPECT_GT(hook.adjust_feedback(0, sybil, 1.0, rng), 1.0);
  EXPECT_EQ(hook.adjust_feedback(0, honest, 1.0, rng), 1.0);
}

TEST(ScenarioHookTest, AdaptiveBoostFollowsTheHighestPaidMember) {
  ScenarioSpec spec = small_spec();
  spec.adaptive = true;
  spec.adaptive_boost = 50.0;
  const Fleet fleet = build_fleet(spec);
  ScenarioHook hook(spec, fleet, Policy::kDynamic);
  const std::vector<std::size_t>& members = fleet.communities[0];
  ASSERT_EQ(members.size(), 2u);

  std::vector<contract::Contract> contracts(fleet.workers.size(),
                                            paying_contract(2.0));
  contracts[members[1]] = paying_contract(6.0);
  const std::vector<double> est(fleet.workers.size(), 0.0);
  util::Rng rng(9);
  hook.on_contracts_posted(0, true, contracts, est, rng);
  EXPECT_EQ(hook.adjust_feedback(0, members[0], 1.0, rng), 1.0);
  EXPECT_GT(hook.adjust_feedback(0, members[1], 1.0, rng), 1.0);

  // Re-target: the other member becomes the best-paid on the next round.
  contracts[members[0]] = paying_contract(11.0);
  hook.on_contracts_posted(1, true, contracts, est, rng);
  EXPECT_GT(hook.adjust_feedback(1, members[0], 1.0, rng), 1.0);
  EXPECT_EQ(hook.adjust_feedback(1, members[1], 1.0, rng), 1.0);
}

TEST(ScenarioHookTest, MisreportMaskNeedsSlackAndANonZeroContract) {
  ScenarioSpec spec = small_spec();
  spec.misreport = true;
  const Fleet fleet = build_fleet(spec);
  ASSERT_EQ(fleet.misreporters.size(), 1u);
  const std::size_t liar = fleet.misreporters.front();
  const std::vector<double> est(fleet.workers.size(), 0.0);
  util::Rng rng(3);

  // Tight slack: the Theorem 4.1 gap of a paying contract clears it, so
  // the accuracy signal is masked.
  spec.misreport_slack = 0.0;
  ScenarioHook masked(spec, fleet, Policy::kDynamic);
  std::vector<contract::Contract> contracts(fleet.workers.size(),
                                            paying_contract(5.0));
  masked.on_contracts_posted(0, true, contracts, est, rng);
  EXPECT_EQ(masked.adjust_accuracy_sample(0, liar, 1.6, rng), 1.6 * 0.25);

  // Absurd slack: no contract leaves that much headroom — no masking.
  spec.misreport_slack = 1e9;
  ScenarioHook unmasked(spec, fleet, Policy::kDynamic);
  unmasked.on_contracts_posted(0, true, contracts, est, rng);
  EXPECT_EQ(unmasked.adjust_accuracy_sample(0, liar, 1.6, rng), 1.6);

  // Zero contract: nothing to exploit, the mask stays off.
  std::vector<contract::Contract> zeros(fleet.workers.size());
  spec.misreport_slack = 0.0;
  ScenarioHook idle(spec, fleet, Policy::kDynamic);
  idle.on_contracts_posted(0, true, zeros, est, rng);
  EXPECT_EQ(idle.adjust_accuracy_sample(0, liar, 1.6, rng), 1.6);
}

TEST(RunCellTest, ScoresAreBitwiseReproducible) {
  ScenarioSpec spec = small_spec();
  spec.sybil = 2;
  const ScenarioCell a = run_cell(spec, Policy::kDynamic);
  const ScenarioCell b = run_cell(spec, Policy::kDynamic);
  EXPECT_EQ(a.score.requester_utility, b.score.requester_utility);
  EXPECT_EQ(a.score.total_compensation, b.score.total_compensation);
  EXPECT_EQ(a.score.detector_precision, b.score.detector_precision);
  EXPECT_EQ(a.score.detector_recall, b.score.detector_recall);
  EXPECT_EQ(a.score.community_recall, b.score.community_recall);
  EXPECT_EQ(a.score.quarantined, b.score.quarantined);
  EXPECT_EQ(a.score.excluded, b.score.excluded);
}

TEST(IngestFeedTest, RoundsAreBitwiseReproducible) {
  ScenarioSpec spec = small_spec();
  spec.sybil = 3;
  IngestFeed a(spec);
  IngestFeed b(spec);
  ASSERT_EQ(a.worker_count(), spec.workers + spec.sybil);
  for (std::size_t t = 0; t < 3; ++t) {
    const auto ra = a.round({});
    const auto rb = b.round({});
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].effort, rb[i].effort) << "round " << t << " worker " << i;
      EXPECT_EQ(ra[i].feedback, rb[i].feedback);
      EXPECT_EQ(ra[i].accuracy_sample, rb[i].accuracy_sample);
    }
  }
}

TEST(IngestFeedTest, RejectsWrongContractArity) {
  const ScenarioSpec spec = small_spec();
  IngestFeed feed(spec);
  const std::vector<contract::Contract> wrong(spec.workers + 5);
  EXPECT_THROW(feed.round(wrong), Error);
}

}  // namespace
}  // namespace ccd::scenario
