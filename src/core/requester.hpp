// Requester-side model: the feedback weight of Eq. 5 and its configuration.
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

  void validate() const;
};

/// Eq. 5 with floor and cap applied. `accuracy_distance` is the mean
/// |l_i - l̄| in stars; `malicious_probability` in [0,1]; `partners` = A_i.
double feedback_weight(const RequesterConfig& config, double accuracy_distance,
                       double malicious_probability, std::size_t partners);

}  // namespace ccd::core
