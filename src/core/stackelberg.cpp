#include "core/stackelberg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "contract/worker_response.hpp"
#include "core/checkpoint.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ccd::core {

SimWorkerSpec::Behaviour SimWorkerSpec::behaviour_at(std::size_t round) const {
  // Two personas: the base (omega, accuracy_distance) and the switched
  // (switched_omega, switched_accuracy_distance). switch_round moves the
  // worker permanently to the switched persona; masking_period instead
  // alternates between the two, spending `masking_duty` of every cycle on
  // the base persona (the mask). Masking starts at switch_round if both
  // are set.
  Behaviour base{omega, accuracy_distance, false};
  Behaviour attack{switched_omega, switched_accuracy_distance, true};

  const std::size_t start = switch_round ? *switch_round : 0;
  if (round < start) return base;

  if (masking_period && *masking_period >= 1) {
    const std::size_t phase = (round - start) % *masking_period;
    const auto mask_rounds = static_cast<std::size_t>(
        masking_duty * static_cast<double>(*masking_period));
    return phase < mask_rounds ? base : attack;
  }
  return switch_round ? attack : base;
}

void RoundHook::on_contracts_posted(std::size_t /*round*/, bool /*redesigned*/,
                                    std::vector<contract::Contract>& /*contracts*/,
                                    const std::vector<double>& /*est_malicious*/,
                                    util::Rng& /*rng*/) {}

double RoundHook::adjust_feedback(std::size_t /*round*/, std::size_t /*worker*/,
                                  double feedback, util::Rng& /*rng*/) {
  return feedback;
}

double RoundHook::adjust_accuracy_sample(std::size_t /*round*/,
                                         std::size_t /*worker*/, double sample,
                                         util::Rng& /*rng*/) {
  return sample;
}

void SimConfig::validate() const {
  requester.validate();
  CCD_CHECK_MSG(rounds >= 1, "simulation needs at least one round");
  CCD_CHECK_MSG(feedback_noise >= 0.0, "feedback noise must be >= 0");
  CCD_CHECK_MSG(accuracy_noise >= 0.0, "accuracy noise must be >= 0");
  CCD_CHECK_MSG(redesign_every >= 1, "redesign_every must be >= 1");
  CCD_CHECK_MSG(ema_alpha > 0.0 && ema_alpha <= 1.0,
                "ema_alpha must be in (0, 1]");
  CCD_CHECK_MSG(checkpoint_every == 0 || !checkpoint_path.empty(),
                "checkpoint_every needs a checkpoint_path");
  policy.validate();
}

StackelbergSimulator::~StackelbergSimulator() = default;

StackelbergSimulator::StackelbergSimulator(std::vector<SimWorkerSpec> workers,
                                           SimConfig config)
    : workers_(std::move(workers)), config_(std::move(config)) {
  config_.validate();
  CCD_CHECK_MSG(!workers_.empty(), "simulation needs at least one worker");
  if (config_.threads > 0) {
    own_pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  }
  policy_ = policy::make_policy(config_.policy);
  init_fresh_state();
}

StackelbergSimulator::StackelbergSimulator(const SimCheckpoint& checkpoint)
    : workers_(checkpoint.workers), config_(checkpoint.config) {
  config_.validate();
  CCD_CHECK_MSG(!workers_.empty(), "simulation needs at least one worker");
  if (config_.threads > 0) {
    own_pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  }
  policy_ = policy::make_policy(config_.policy);
  policy_->load_state(checkpoint.policy_state);
  // decode_checkpoint already verified cross-field consistency; restore the
  // dynamic state verbatim so the continuation is bitwise-exact.
  next_round_ = checkpoint.next_round;
  rng_.set_state(checkpoint.rng);
  est_accuracy_ = checkpoint.est_accuracy;
  est_malicious_ = checkpoint.est_malicious;
  contracts_ = checkpoint.contracts;
  last_feedback_ = checkpoint.last_feedback;
  history_ = checkpoint.history;
  history_.cancelled = false;
  history_.cancel_reason = util::CancelReason::kNone;
  CCD_CHECK_MSG(next_round_ <= config_.rounds,
                "checkpoint is beyond the configured rounds");
}

void StackelbergSimulator::init_fresh_state() {
  const std::size_t n = workers_.size();
  rng_ = util::Rng(config_.seed);
  next_round_ = 0;
  est_accuracy_.assign(n, config_.requester.accuracy_floor);
  est_malicious_.assign(n, 0.05);
  contracts_.assign(n, contract::Contract{});
  last_feedback_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Neutral starting estimates; round-0 feedback memory is zero effort.
    last_feedback_[i] = workers_[i].psi(0.0);
  }
  history_ = SimResult{};
  history_.worker_history.assign(n, {});
}

SimCheckpoint StackelbergSimulator::snapshot() const {
  SimCheckpoint checkpoint;
  checkpoint.config = config_;
  checkpoint.workers = workers_;
  checkpoint.next_round = next_round_;
  checkpoint.rng = rng_.state();
  checkpoint.est_accuracy = est_accuracy_;
  checkpoint.est_malicious = est_malicious_;
  checkpoint.contracts = contracts_;
  checkpoint.last_feedback = last_feedback_;
  checkpoint.history = history_;
  checkpoint.history.cancelled = false;
  checkpoint.history.cancel_reason = util::CancelReason::kNone;
  checkpoint.policy_state = policy_->save_state();
  return checkpoint;
}

void StackelbergSimulator::write_checkpoint() const {
  save_checkpoint(config_.checkpoint_path, snapshot());
}

SimResult StackelbergSimulator::run(const util::CancellationToken* cancel) {
  const StepStatus status = step(config_.rounds, cancel);

  if (status.cancelled && !config_.checkpoint_path.empty()) {
    // Final checkpoint at the cancellation boundary, so ccdctl resume=FILE
    // can pick the run back up from exactly here.
    write_checkpoint();
  }

  SimResult result = history_;
  result.cancelled = status.cancelled;
  result.cancel_reason = status.cancel_reason;
  return result;
}

StepStatus StackelbergSimulator::step(std::size_t max_rounds,
                                      const util::CancellationToken* cancel) {
  const std::size_t n = workers_.size();
  util::ThreadPool& pool = own_pool_ ? *own_pool_ : util::shared_pool();
  const std::size_t remaining = config_.rounds - next_round_;
  const std::size_t stop_round =
      next_round_ + std::min(max_rounds, remaining);
  const std::size_t first_round = next_round_;

  bool cancelled = false;
  for (std::size_t t = next_round_; t < stop_round; ++t) {
    if (cancel != nullptr && cancel->poll()) {
      cancelled = true;
      break;
    }

    // --- Requester: the policy backend posts this round's contracts -----
    // BiP re-solves the bilevel program on redesign rounds only (one
    // cached k-sweep per distinct spec; checkpointed runs replay redesign
    // rounds and reproduce contracts bitwise, since the batch is bitwise-
    // equal to design_contract on every build). Learning backends post
    // fresh arms every round.
    const bool redesign_round = t % config_.redesign_every == 0;
    const bool learning = policy_->learns();
    std::vector<policy::WorkerView> views;
    if (redesign_round || learning) {
      views.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        policy::WorkerView& view = views[i];
        view.psi = workers_[i].psi;
        view.beta = workers_[i].beta;
        view.omega = est_malicious_[i] >= config_.suspicion_threshold
                         ? config_.requester.omega_malicious
                         : 0.0;
        view.active = workers_[i].active_at(t);
        // Churned-out workers get weight 0, which BiP resolves to the zero
        // contract through the cheap §V elimination path.
        view.weight = view.active
                          ? feedback_weight(config_.requester,
                                            est_accuracy_[i],
                                            est_malicious_[i],
                                            workers_[i].partners)
                          : 0.0;
        view.mu = config_.requester.mu;
        view.intervals = config_.requester.intervals;
      }
      policy::PostEnv env;
      env.pool = &pool;
      env.cache = &design_cache_;
      env.cancel = cancel;
      if (!policy_->post(t, redesign_round, views, contracts_, rng_, env)) {
        // The design batch was cut short: drop the round entirely
        // (contracts may be partially refreshed, but a resumed run
        // re-enters this same round and rebuilds them from the
        // checkpointed estimates, so the continuation stays bitwise-exact).
        cancelled = true;
        break;
      }
    }

    if (hook_ != nullptr) {
      hook_->on_contracts_posted(t, redesign_round, contracts_,
                                 est_malicious_, rng_);
    }

    RoundRecord record;
    record.round = t;

    // Realized outcomes fed back to learning backends (skipped entirely
    // for BiP, keeping its per-round cost and RNG stream unchanged).
    std::vector<policy::RoundOutcome> outcomes;
    if (learning) outcomes.resize(n);

    for (std::size_t i = 0; i < n; ++i) {
      SimWorkerSpec& w = workers_[i];
      if (!w.active_at(t)) {
        // Outside the churn window: no participation, no pay, no RNG
        // draws; keep the history rectangular with a zero row.
        WorkerRound idle;
        idle.estimated_malicious = est_malicious_[i];
        history_.worker_history[i].push_back(idle);
        continue;
      }
      // Behaviour switch / masking (the dynamics the contract must adapt to).
      const SimWorkerSpec::Behaviour behaviour = w.behaviour_at(t);
      const double omega = behaviour.omega;
      const double true_accuracy = behaviour.accuracy_distance;

      // --- Worker: best response to the posted contract ----------------
      const contract::WorkerIncentives inc{w.beta, omega};
      const contract::BestResponse br =
          contract::best_response(contracts_[i], w.psi, inc);

      // Realized feedback is noisy around psi(y); the hook may tamper with
      // it (collusive boosts) before the physical >= 0 clamp.
      double feedback =
          br.feedback + rng_.normal(0.0, config_.feedback_noise);
      if (hook_ != nullptr) {
        feedback = hook_->adjust_feedback(t, i, feedback, rng_);
      }
      feedback = std::max(0.0, feedback);

      // Compensation this round comes from *last* round's feedback (Eq. 1).
      const double compensation = contracts_[i].pay(last_feedback_[i]);
      last_feedback_[i] = feedback;

      // --- Requester: update estimates from this round's observables ---
      double accuracy_sample =
          true_accuracy + rng_.normal(0.0, config_.accuracy_noise);
      if (hook_ != nullptr) {
        accuracy_sample =
            hook_->adjust_accuracy_sample(t, i, accuracy_sample, rng_);
      }
      accuracy_sample = std::max(0.0, accuracy_sample);
      est_accuracy_[i] = (1.0 - config_.ema_alpha) * est_accuracy_[i] +
                         config_.ema_alpha * accuracy_sample;
      // Maliciousness signal: biased workers produce large deviations.
      const double signal =
          1.0 / (1.0 + std::exp(-4.0 * (accuracy_sample - 0.9)));
      est_malicious_[i] = (1.0 - config_.ema_alpha) * est_malicious_[i] +
                          config_.ema_alpha * signal;

      const double weight =
          feedback_weight(config_.requester, est_accuracy_[i],
                          est_malicious_[i], w.partners);

      WorkerRound wr;
      wr.effort = br.effort;
      wr.feedback = feedback;
      wr.compensation = compensation;
      wr.worker_utility = compensation - w.beta * br.effort + omega * feedback;
      wr.estimated_malicious = est_malicious_[i];
      wr.weight = weight;
      history_.worker_history[i].push_back(wr);

      record.weighted_feedback += weight * feedback;
      record.total_compensation += compensation;

      if (learning) {
        // The arm's steady-state value to the requester: what this round's
        // contract pays at this round's feedback, weighted as the policy
        // saw the worker when it posted.
        outcomes[i].active = true;
        outcomes[i].feedback = feedback;
        outcomes[i].reward = views[i].weight * feedback -
                             config_.requester.mu * contracts_[i].pay(feedback);
      }
    }

    if (learning) policy_->observe(t, outcomes, rng_);

    record.requester_utility =
        record.weighted_feedback -
        config_.requester.mu * record.total_compensation;
    history_.cumulative_requester_utility += record.requester_utility;
    history_.rounds.push_back(record);
    next_round_ = t + 1;

    if (config_.checkpoint_every > 0 &&
        next_round_ % config_.checkpoint_every == 0) {
      write_checkpoint();
    }
  }

  StepStatus status;
  status.completed_rounds = next_round_ - first_round;
  status.next_round = next_round_;
  status.finished = next_round_ >= config_.rounds;
  status.cancelled = cancelled;
  status.cancel_reason = cancelled && cancel != nullptr
                             ? cancel->reason()
                             : util::CancelReason::kNone;
  status.cumulative_requester_utility =
      history_.cumulative_requester_utility;
  return status;
}

std::vector<SimWorkerSpec> preset_fleet(std::size_t workers,
                                        std::size_t malicious) {
  CCD_CHECK_MSG(malicious <= workers, "preset fleet: malicious > workers");
  std::vector<SimWorkerSpec> fleet;
  fleet.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    SimWorkerSpec w;
    const bool is_malicious = i < malicious;
    w.name = (is_malicious ? "malicious" : "honest") + std::to_string(i);
    w.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
    w.omega = is_malicious ? 0.6 : 0.0;
    w.accuracy_distance = is_malicious ? 1.7 : 0.3;
    fleet.push_back(w);
  }
  return fleet;
}

}  // namespace ccd::core
