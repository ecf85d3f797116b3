#include "core/requester.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ccd::core {

void RequesterConfig::validate() const {
  CCD_CHECK_MSG(rho > 0.0, "rho must be positive");
  CCD_CHECK_MSG(kappa >= 0.0, "kappa must be non-negative");
  CCD_CHECK_MSG(gamma >= 0.0, "gamma must be non-negative");
  CCD_CHECK_MSG(mu > 0.0, "mu must be positive");
  CCD_CHECK_MSG(beta > 0.0, "beta must be positive");
  CCD_CHECK_MSG(omega_malicious >= 0.0, "omega_malicious must be >= 0");
  CCD_CHECK_MSG(intervals >= 1, "intervals must be >= 1");
  CCD_CHECK_MSG(intervals <= kMaxIntervals,
                "intervals must be <= " << kMaxIntervals);
  CCD_CHECK_MSG(accuracy_floor > 0.0, "accuracy_floor must be positive");
  CCD_CHECK_MSG(weight_cap > 0.0, "weight_cap must be positive");
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

}  // namespace ccd::core
