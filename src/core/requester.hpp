// Requester-side model: the feedback weight of Eq. 5, its configuration,
// and the requester's half of the repeated game (core::Requester).
//
//   w_i = rho / |l_i - l̄| - kappa * e_i^mal - gamma * A_i
//
// where |l_i - l̄| is the worker's mean absolute score deviation from expert
// consensus, e_i^mal the estimated maliciousness probability, and A_i the
// number of collusion partners. A floor on the deviation keeps the weight
// finite for perfectly accurate workers, and a cap bounds the requester's
// valuation of any single worker.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "contract/contract.hpp"
#include "effort/effort_model.hpp"
#include "policy/policy.hpp"
#include "util/rng.hpp"

namespace ccd::core {

/// Largest interval count m a RequesterConfig accepts. m arrives from
/// configuration, open requests and checkpoint blobs, and every redesign
/// sizes its per-class k-sweep from it (O(m) memory, O(m^2) scan steps).
/// The paper's figures use m <= 128 and the benchmarks m <= 256.
inline constexpr std::size_t kMaxIntervals = 4096;

struct RequesterConfig {
  /// Eq. 5 coefficients (paper defaults: kappa = gamma = 0.1).
  double rho = 1.0;
  double kappa = 0.1;
  double gamma = 0.1;
  /// Weight on total compensation in the requester's utility (Eq. 7).
  double mu = 1.0;
  /// Worker effort-cost weight beta (paper default 1).
  double beta = 1.0;
  /// Feedback-influence weight omega attributed to suspected malicious
  /// workers (the paper leaves omega unspecified; swept in ablations).
  double omega_malicious = 0.5;
  /// Number of effort intervals m in each designed contract, in
  /// [1, kMaxIntervals].
  std::size_t intervals = 20;
  /// Floor on |l_i - l̄| (score stars) to keep 1/deviation finite.
  double accuracy_floor = 0.25;
  /// Cap on any single worker's feedback weight.
  double weight_cap = 4.0;

  void validate() const;  ///< throws ccd::ConfigError
};

/// Eq. 5 with floor and cap applied. `accuracy_distance` is the mean
/// |l_i - l̄| in stars; `malicious_probability` in [0,1]; `partners` = A_i.
double feedback_weight(const RequesterConfig& config, double accuracy_distance,
                       double malicious_probability, std::size_t partners);

/// The requester's half of the repeated game (§III-B), shared by
/// StackelbergSimulator and serve ingest sessions: per-worker beliefs (EMA
/// estimates of accuracy and maliciousness; the believed effort curve ψ,
/// cost β and collusion partners A_i), the Eq. 5 weights they set, and the
/// policy backend that posts contracts from them. The caller owns the RNG
/// and the round accounting: which pay scores a round, and which weight a
/// learner is credited with.
class Requester {
 public:
  /// Fresh beliefs: est_accuracy at the accuracy floor, est_malicious 0.05,
  /// the default effort curve, cost `config.beta`, no partners, and zero
  /// contracts. Throws ccd::ConfigError on invalid parameters.
  Requester(const RequesterConfig& config, double ema_alpha,
            double suspicion_threshold, const policy::PolicyConfig& policy,
            std::size_t workers);

  /// Throws ccd::ConfigError unless `config` validates, `ema_alpha` is in
  /// (0, 1], every est_accuracy is finite and >= 0, and every
  /// est_malicious is in [0, 1]. Opens and both checkpoint decoders check
  /// here, so no restored blob fails every later round in feedback_weight.
  static void validate(const RequesterConfig& config, double ema_alpha,
                       const std::vector<double>& est_accuracy = {},
                       const std::vector<double>& est_malicious = {});

  /// Seed `worker`'s believed curve, cost and partners.
  void believe(std::size_t worker, const effort::QuadraticEffort& psi,
               double beta, std::size_t partners);
  /// Replace `worker`'s believed curve (an ingest refit).
  void set_psi(std::size_t worker, const effort::QuadraticEffort& psi) {
    psi_[worker] = psi;
  }
  /// Restore checkpointed estimates (checked by validate()), contracts and
  /// learner state.
  void restore(std::vector<double> est_accuracy,
               std::vector<double> est_malicious,
               std::vector<contract::Contract> contracts,
               const std::string& policy_state);

  /// Fold one accuracy sample (>= 0) into `worker`'s estimates.
  void observe(std::size_t worker, double accuracy_sample);
  /// `worker`'s Eq. 5 weight under the current estimates.
  double weight(std::size_t worker) const;

  /// Fill one WorkerView per worker from the beliefs into a reused buffer
  /// and let the backend post round `round`'s contracts. `active(i)` false
  /// (a churned-out worker) posts weight 0; null means all active. Returns
  /// false iff env.cancel cut the post short.
  bool post(std::size_t round, bool redesign, util::Rng& rng,
            const policy::PostEnv& env,
            const std::function<bool(std::size_t)>& active = nullptr);
  /// The weight the last post() gave `worker`.
  double posted_weight(std::size_t worker) const {
    return views_[worker].weight;
  }
  /// Learner feedback: value `worker`'s posted contract at this round's
  /// feedback (weight * feedback - mu * pay); close_round() hands the
  /// round's outcomes to the backend. Both are no-ops unless it learns.
  void credit(std::size_t worker, double feedback, double weight);
  void close_round(std::size_t round, util::Rng& rng);

  std::size_t workers() const { return est_accuracy_.size(); }
  const RequesterConfig& config() const { return config_; }
  double ema_alpha() const { return ema_alpha_; }
  double suspicion_threshold() const { return suspicion_threshold_; }
  const policy::PolicyConfig& policy_config() const { return policy_config_; }
  bool learns() const { return learns_; }
  std::string policy_state() const { return policy_->save_state(); }
  const std::vector<double>& est_accuracy() const { return est_accuracy_; }
  const std::vector<double>& est_malicious() const { return est_malicious_; }
  const effort::QuadraticEffort& psi(std::size_t i) const { return psi_[i]; }
  /// Posted contracts; RoundHook::on_contracts_posted may edit them.
  std::vector<contract::Contract>& contracts() { return contracts_; }
  const std::vector<contract::Contract>& contracts() const {
    return contracts_;
  }

 private:
  RequesterConfig config_;
  double ema_alpha_;
  double suspicion_threshold_;
  policy::PolicyConfig policy_config_;
  std::unique_ptr<policy::Policy> policy_;
  bool learns_ = false;
  std::vector<double> est_accuracy_;
  std::vector<double> est_malicious_;
  std::vector<effort::QuadraticEffort> psi_;
  std::vector<double> beta_;
  std::vector<std::size_t> partners_;
  std::vector<contract::Contract> contracts_;
  // Reused buffers, not state: the last post's views, this round's outcomes.
  std::vector<policy::WorkerView> views_;
  std::vector<policy::RoundOutcome> outcomes_;
};

}  // namespace ccd::core
