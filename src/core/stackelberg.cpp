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

WorkerPlay play_worker_round(const SimWorkerSpec& worker, std::size_t index,
                             std::size_t round,
                             const contract::Contract& posted,
                             double feedback_noise, double accuracy_noise,
                             RoundHook* hook, util::Rng& rng) {
  // Behaviour switch / masking (the dynamics the contract must adapt to).
  const SimWorkerSpec::Behaviour behaviour = worker.behaviour_at(round);
  const contract::BestResponse br = contract::best_response(
      posted, worker.psi,
      contract::WorkerIncentives{worker.beta, behaviour.omega});

  // Realized feedback is noisy around psi(y); the hook may tamper with it
  // (collusive boosts) before the physical >= 0 clamp.
  WorkerPlay play{behaviour.omega, br.effort, 0.0, 0.0};
  play.feedback = br.feedback + rng.normal(0.0, feedback_noise);
  if (hook != nullptr) {
    play.feedback = hook->adjust_feedback(round, index, play.feedback, rng);
  }
  play.feedback = std::max(0.0, play.feedback);

  // The requester's noisy view of the worker's accuracy, which the hook
  // may tamper with (strategic misreports) before the same clamp.
  play.accuracy_sample =
      behaviour.accuracy_distance + rng.normal(0.0, accuracy_noise);
  if (hook != nullptr) {
    play.accuracy_sample =
        hook->adjust_accuracy_sample(round, index, play.accuracy_sample, rng);
  }
  play.accuracy_sample = std::max(0.0, play.accuracy_sample);
  return play;
}

void SimConfig::validate() const {
  Requester::validate(requester, ema_alpha);
  require_config(rounds >= 1, "simulation needs at least one round");
  require_config(feedback_noise >= 0.0, "feedback noise must be >= 0");
  require_config(accuracy_noise >= 0.0, "accuracy noise must be >= 0");
  require_config(redesign_every >= 1, "redesign_every must be >= 1");
  require_config(checkpoint_every == 0 || !checkpoint_path.empty(),
                 "checkpoint_every needs a checkpoint_path");
  if (threads > kMaxSimThreads) {
    throw ConfigError("threads must be <= " + std::to_string(kMaxSimThreads));
  }
  policy.validate();
}

namespace {

/// The requester of a fresh run, believing the worker specs' curves, costs
/// and partners.
Requester spec_requester(const SimConfig& config,
                         const std::vector<SimWorkerSpec>& workers) {
  config.validate();
  require_config(!workers.empty(), "simulation needs at least one worker");
  Requester requester(config.requester, config.ema_alpha,
                      config.suspicion_threshold, config.policy,
                      workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    requester.believe(i, workers[i].psi, workers[i].beta, workers[i].partners);
  }
  return requester;
}

}  // namespace

StackelbergSimulator::~StackelbergSimulator() = default;

StackelbergSimulator::StackelbergSimulator(std::vector<SimWorkerSpec> workers,
                                           SimConfig config)
    : workers_(std::move(workers)),
      config_(std::move(config)),
      rng_(config_.seed),
      requester_(spec_requester(config_, workers_)) {
  if (config_.threads > 0) {
    own_pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  }
  const std::size_t n = workers_.size();
  last_feedback_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Round-0 feedback memory is zero effort.
    last_feedback_[i] = workers_[i].psi(0.0);
  }
  history_.worker_history.assign(n, {});
}

StackelbergSimulator::StackelbergSimulator(const SimCheckpoint& checkpoint)
    : StackelbergSimulator(checkpoint.workers, checkpoint.config) {
  // decode_checkpoint already verified cross-field consistency; restore the
  // dynamic state verbatim so the continuation is bitwise-exact.
  requester_.restore(checkpoint.est_accuracy, checkpoint.est_malicious,
                     checkpoint.contracts, checkpoint.policy_state);
  next_round_ = checkpoint.next_round;
  rng_.set_state(checkpoint.rng);
  last_feedback_ = checkpoint.last_feedback;
  history_ = checkpoint.history;
  history_.cancelled = false;
  history_.cancel_reason = util::CancelReason::kNone;
  CCD_CHECK_MSG(next_round_ <= config_.rounds,
                "checkpoint is beyond the configured rounds");
}

SimCheckpoint StackelbergSimulator::snapshot() const {
  SimCheckpoint checkpoint;
  checkpoint.config = config_;
  checkpoint.workers = workers_;
  checkpoint.next_round = next_round_;
  checkpoint.rng = rng_.state();
  checkpoint.est_accuracy = requester_.est_accuracy();
  checkpoint.est_malicious = requester_.est_malicious();
  checkpoint.contracts = requester_.contracts();
  checkpoint.last_feedback = last_feedback_;
  checkpoint.history = history_;
  checkpoint.history.cancelled = false;
  checkpoint.history.cancel_reason = util::CancelReason::kNone;
  checkpoint.policy_state = requester_.policy_state();
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
  std::vector<contract::Contract>& contracts = requester_.contracts();
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
    if (redesign_round || requester_.learns()) {
      policy::PostEnv env;
      env.pool = &pool;
      env.cache = &design_cache_;
      env.cancel = cancel;
      const auto active = [&](std::size_t i) {
        return workers_[i].active_at(t);
      };
      if (!requester_.post(t, redesign_round, rng_, env, active)) {
        // The design batch was cut short: drop the round entirely
        // (contracts may be partially refreshed, but a resumed run
        // re-enters this same round and rebuilds them from the
        // checkpointed estimates, so the continuation stays bitwise-exact).
        cancelled = true;
        break;
      }
    }

    if (hook_ != nullptr) {
      hook_->on_contracts_posted(t, redesign_round, contracts,
                                 requester_.est_malicious(), rng_);
    }

    RoundRecord record;
    record.round = t;

    for (std::size_t i = 0; i < n; ++i) {
      const SimWorkerSpec& w = workers_[i];
      if (!w.active_at(t)) {
        // Outside the churn window: no participation, no pay, no RNG
        // draws; keep the history rectangular with a zero row.
        WorkerRound idle;
        idle.estimated_malicious = requester_.est_malicious()[i];
        history_.worker_history[i].push_back(idle);
        continue;
      }
      // --- Worker: best response to the posted contract ----------------
      const WorkerPlay play =
          play_worker_round(w, i, t, contracts[i], config_.feedback_noise,
                            config_.accuracy_noise, hook_, rng_);

      // Compensation this round comes from *last* round's feedback (Eq. 1).
      const double compensation = contracts[i].pay(last_feedback_[i]);
      last_feedback_[i] = play.feedback;

      // --- Requester: update estimates from this round's observables ---
      requester_.observe(i, play.accuracy_sample);
      const double weight = requester_.weight(i);

      WorkerRound wr;
      wr.effort = play.effort;
      wr.feedback = play.feedback;
      wr.compensation = compensation;
      wr.worker_utility = compensation - w.beta * play.effort +
                          play.omega * play.feedback;
      wr.estimated_malicious = requester_.est_malicious()[i];
      wr.weight = weight;
      history_.worker_history[i].push_back(wr);

      record.weighted_feedback += weight * play.feedback;
      record.total_compensation += compensation;

      // A learner's arm is worth what this round's contract pays at this
      // round's feedback, weighted as the policy saw the worker when it
      // posted.
      requester_.credit(i, play.feedback, requester_.posted_weight(i));
    }
    requester_.close_round(t, rng_);

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
  require_config(malicious <= workers, "preset fleet: malicious > workers");
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
