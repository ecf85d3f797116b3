#include "core/requester.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace ccd::core {

void RequesterConfig::validate() const {
  require_config(rho > 0.0, "rho must be positive");
  require_config(kappa >= 0.0, "kappa must be non-negative");
  require_config(gamma >= 0.0, "gamma must be non-negative");
  require_config(mu > 0.0, "mu must be positive");
  require_config(beta > 0.0, "beta must be positive");
  require_config(omega_malicious >= 0.0, "omega_malicious must be >= 0");
  require_config(intervals >= 1, "intervals must be >= 1");
  if (intervals > kMaxIntervals) {
    throw ConfigError("intervals must be <= " + std::to_string(kMaxIntervals));
  }
  require_config(accuracy_floor > 0.0, "accuracy_floor must be positive");
  require_config(weight_cap > 0.0, "weight_cap must be positive");
}

double feedback_weight(const RequesterConfig& config, double accuracy_distance,
                       double malicious_probability, std::size_t partners) {
  CCD_CHECK_MSG(accuracy_distance >= 0.0,
                "accuracy distance must be non-negative");
  CCD_CHECK_MSG(malicious_probability >= 0.0 && malicious_probability <= 1.0,
                "malicious probability must be in [0,1]");
  const double distance = std::max(config.accuracy_floor, accuracy_distance);
  const double weight = config.rho / distance -
                        config.kappa * malicious_probability -
                        config.gamma * static_cast<double>(partners);
  return std::min(config.weight_cap, weight);
}

Requester::Requester(const RequesterConfig& config, double ema_alpha,
                     double suspicion_threshold,
                     const policy::PolicyConfig& policy, std::size_t workers)
    : config_(config),
      ema_alpha_(ema_alpha),
      suspicion_threshold_(suspicion_threshold),
      policy_config_(policy),
      est_accuracy_(workers, config.accuracy_floor),
      est_malicious_(workers, 0.05),
      psi_(workers, effort::QuadraticEffort(-1.0, 8.0, 2.0)),
      beta_(workers, config.beta),
      partners_(workers, 0),
      contracts_(workers),
      views_(workers),
      outcomes_(workers) {
  validate(config_, ema_alpha_);
  policy_ = policy::make_policy(policy_config_);
  learns_ = policy_->learns();
}

void Requester::validate(const RequesterConfig& config, double ema_alpha,
                         const std::vector<double>& est_accuracy,
                         const std::vector<double>& est_malicious) {
  config.validate();
  require_config(ema_alpha > 0.0 && ema_alpha <= 1.0,
                 "ema_alpha must be in (0, 1]");
  for (const double e : est_accuracy) {
    require_config(std::isfinite(e) && e >= 0.0,
                   "est_accuracy must be finite, >= 0");
  }
  for (const double e : est_malicious) {
    require_config(e >= 0.0 && e <= 1.0, "est_malicious must be in [0, 1]");
  }
}

void Requester::believe(std::size_t worker, const effort::QuadraticEffort& psi,
                        double beta, std::size_t partners) {
  psi_[worker] = psi;
  beta_[worker] = beta;
  partners_[worker] = partners;
}

void Requester::restore(std::vector<double> est_accuracy,
                        std::vector<double> est_malicious,
                        std::vector<contract::Contract> contracts,
                        const std::string& policy_state) {
  CCD_CHECK_MSG(est_accuracy.size() == workers() &&
                    est_malicious.size() == workers() &&
                    contracts.size() == workers(),
                "requester state is not sized for " << workers() << " workers");
  validate(config_, ema_alpha_, est_accuracy, est_malicious);
  policy_->load_state(policy_state);
  est_accuracy_ = std::move(est_accuracy);
  est_malicious_ = std::move(est_malicious);
  contracts_ = std::move(contracts);
}

void Requester::observe(std::size_t worker, double accuracy_sample) {
  est_accuracy_[worker] = (1.0 - ema_alpha_) * est_accuracy_[worker] +
                          ema_alpha_ * accuracy_sample;
  // Maliciousness signal: biased workers produce large deviations.
  const double signal =
      1.0 / (1.0 + std::exp(-4.0 * (accuracy_sample - 0.9)));
  est_malicious_[worker] = (1.0 - ema_alpha_) * est_malicious_[worker] +
                           ema_alpha_ * signal;
}

double Requester::weight(std::size_t worker) const {
  return feedback_weight(config_, est_accuracy_[worker],
                         est_malicious_[worker], partners_[worker]);
}

bool Requester::post(std::size_t round, bool redesign, util::Rng& rng,
                     const policy::PostEnv& env,
                     const std::function<bool(std::size_t)>& active) {
  for (std::size_t i = 0; i < views_.size(); ++i) {
    policy::WorkerView& view = views_[i];
    view.psi = psi_[i];
    view.beta = beta_[i];
    view.omega = est_malicious_[i] >= suspicion_threshold_
                     ? config_.omega_malicious
                     : 0.0;
    view.active = !active || active(i);
    // Churned-out workers get weight 0, which BiP resolves to the zero
    // contract through the cheap §V elimination path.
    view.weight = view.active ? weight(i) : 0.0;
    view.mu = config_.mu;
    view.intervals = config_.intervals;
  }
  return policy_->post(round, redesign, views_, contracts_, rng, env);
}

void Requester::credit(std::size_t worker, double feedback, double weight) {
  if (!learns_) return;
  outcomes_[worker] = {true, feedback,
                       weight * feedback -
                           config_.mu * contracts_[worker].pay(feedback)};
}

void Requester::close_round(std::size_t round, util::Rng& rng) {
  if (!learns_) return;
  policy_->observe(round, outcomes_, rng);
  std::fill(outcomes_.begin(), outcomes_.end(), policy::RoundOutcome{});
}

}  // namespace ccd::core
