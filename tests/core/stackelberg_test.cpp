#include "core/stackelberg.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace ccd::core {
namespace {

SimWorkerSpec honest_worker() {
  SimWorkerSpec w;
  w.name = "honest";
  w.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  w.beta = 1.0;
  w.omega = 0.0;
  w.accuracy_distance = 0.3;
  return w;
}

SimWorkerSpec malicious_worker() {
  SimWorkerSpec w;
  w.name = "malicious";
  w.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  w.beta = 1.0;
  w.omega = 0.6;
  w.accuracy_distance = 1.6;
  return w;
}

SimConfig fast_config() {
  SimConfig c;
  c.rounds = 20;
  c.feedback_noise = 0.2;
  c.accuracy_noise = 0.05;
  c.seed = 5;
  return c;
}

// Every field check is a ConfigError (exit 2) that says what is wrong,
// not a failed CCD_CHECK.
TEST(SimConfigTest, Validation) {
  const auto message_of = [](const SimConfig& c) -> std::string {
    try {
      c.validate();
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "no ConfigError";
  };
  EXPECT_EQ(message_of(fast_config()), "no ConfigError");
  SimConfig c = fast_config();
  c.rounds = 0;
  EXPECT_EQ(message_of(c), "simulation needs at least one round");
  c = fast_config();
  c.ema_alpha = 0.0;
  EXPECT_EQ(message_of(c), "ema_alpha must be in (0, 1]");
  c = fast_config();
  c.feedback_noise = -0.1;
  EXPECT_EQ(message_of(c), "feedback noise must be >= 0");
  c = fast_config();
  c.accuracy_noise = -0.1;
  EXPECT_EQ(message_of(c), "accuracy noise must be >= 0");
  c = fast_config();
  c.redesign_every = 0;
  EXPECT_EQ(message_of(c), "redesign_every must be >= 1");
  c = fast_config();
  c.checkpoint_every = 5;
  EXPECT_EQ(message_of(c), "checkpoint_every needs a checkpoint_path");
}

TEST(StackelbergTest, RequiresWorkers) {
  EXPECT_THROW(StackelbergSimulator({}, fast_config()), ConfigError);
  EXPECT_THROW(preset_fleet(2, 3), ConfigError);
}

TEST(StackelbergTest, ProducesOneRecordPerRound) {
  StackelbergSimulator sim({honest_worker()}, fast_config());
  const SimResult r = sim.run();
  EXPECT_EQ(r.rounds.size(), 20u);
  ASSERT_EQ(r.worker_history.size(), 1u);
  EXPECT_EQ(r.worker_history[0].size(), 20u);
}

TEST(StackelbergTest, DeterministicForSeed) {
  const SimResult a =
      StackelbergSimulator({honest_worker(), malicious_worker()},
                           fast_config())
          .run();
  const SimResult b =
      StackelbergSimulator({honest_worker(), malicious_worker()},
                           fast_config())
          .run();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t t = 0; t < a.rounds.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.rounds[t].requester_utility,
                     b.rounds[t].requester_utility);
  }
}

TEST(StackelbergTest, HonestWorkerExertsEffortOnceContractArrives) {
  StackelbergSimulator sim({honest_worker()}, fast_config());
  const SimResult r = sim.run();
  // After the first redesign the honest worker should be working.
  double total_effort = 0.0;
  for (const WorkerRound& wr : r.worker_history[0]) {
    total_effort += wr.effort;
  }
  EXPECT_GT(total_effort, 0.0);
}

TEST(StackelbergTest, CumulativeUtilityMatchesSum) {
  StackelbergSimulator sim({honest_worker(), malicious_worker()},
                           fast_config());
  const SimResult r = sim.run();
  double total = 0.0;
  for (const RoundRecord& rec : r.rounds) total += rec.requester_utility;
  EXPECT_NEAR(r.cumulative_requester_utility, total, 1e-9);
}

TEST(StackelbergTest, EstimatesConvergeToTruth) {
  // Requester's maliciousness estimate should separate the two workers.
  SimConfig c = fast_config();
  c.rounds = 40;
  StackelbergSimulator sim({honest_worker(), malicious_worker()}, c);
  const SimResult r = sim.run();
  const double honest_est = r.worker_history[0].back().estimated_malicious;
  const double malicious_est = r.worker_history[1].back().estimated_malicious;
  EXPECT_LT(honest_est, 0.3);
  EXPECT_GT(malicious_est, 0.7);
}

TEST(StackelbergTest, BehaviourSwitchIsDetected) {
  // A worker that turns malicious mid-run: the estimate should climb after
  // the switch round.
  SimWorkerSpec turncoat = honest_worker();
  turncoat.switch_round = 20;
  turncoat.switched_omega = 0.6;
  turncoat.switched_accuracy_distance = 1.8;

  SimConfig c = fast_config();
  c.rounds = 50;
  StackelbergSimulator sim({turncoat}, c);
  const SimResult r = sim.run();
  const double before = r.worker_history[0][18].estimated_malicious;
  const double after = r.worker_history[0][49].estimated_malicious;
  EXPECT_LT(before, 0.3);
  EXPECT_GT(after, 0.6);
}

TEST(StackelbergTest, AdaptationCutsTurncoatPay) {
  // The dynamic contract should reduce the turncoat's compensation after
  // the behaviour switch is detected (the paper's adaptivity claim).
  SimWorkerSpec turncoat = honest_worker();
  turncoat.switch_round = 25;
  turncoat.switched_omega = 0.4;
  turncoat.switched_accuracy_distance = 2.2;

  SimConfig c = fast_config();
  c.rounds = 60;
  StackelbergSimulator sim({turncoat}, c);
  const SimResult r = sim.run();
  // Compare steady-state pay before the switch with pay well after it.
  double before = 0.0;
  for (std::size_t t = 15; t < 25; ++t) {
    before += r.worker_history[0][t].compensation;
  }
  double after = 0.0;
  for (std::size_t t = 50; t < 60; ++t) {
    after += r.worker_history[0][t].compensation;
  }
  EXPECT_LT(after, 0.5 * before);
}

TEST(StackelbergTest, RedesignEverySupportsSlowSchedules) {
  SimConfig c = fast_config();
  c.redesign_every = 5;
  StackelbergSimulator sim({honest_worker()}, c);
  EXPECT_NO_THROW(sim.run());
}

TEST(StackelbergTest, PaymentLagsFeedbackByOneRound) {
  // c^t = f(q^{t-1}): with zero noise the compensation at round t must equal
  // the contract evaluated at round t-1's feedback.
  SimConfig c = fast_config();
  c.feedback_noise = 0.0;
  c.accuracy_noise = 0.0;
  c.redesign_every = 1000;  // design once, then hold fixed
  c.rounds = 5;
  StackelbergSimulator sim({honest_worker()}, c);
  const SimResult r = sim.run();
  const auto& h = r.worker_history[0];
  // With a fixed contract and no noise the worker repeats the same effort;
  // from round 1 on compensation is constant and positive.
  for (std::size_t t = 2; t < h.size(); ++t) {
    EXPECT_NEAR(h[t].compensation, h[1].compensation, 1e-9);
  }
}

}  // namespace
}  // namespace ccd::core
