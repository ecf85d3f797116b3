#include "contract/baselines.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "util/error.hpp"

namespace ccd::contract {

FixedContractOutcome fixed_threshold_baseline(const SubproblemSpec& spec,
                                              double payment, double y_min) {
  spec.validate();
  CCD_CHECK_MSG(payment >= 0.0, "fixed payment must be non-negative");
  CCD_CHECK_MSG(y_min >= 0.0, "threshold effort must be non-negative");
  const auto& psi = spec.psi;
  const double beta = spec.incentives.beta;
  const double omega = spec.incentives.omega;
  const double limit = psi.y_peak();

  // Best utility below the threshold (payment 0): maximize
  // omega psi(y) - beta y on [0, y_min).
  double best_below_y = 0.0;
  double best_below = omega * psi(0.0);
  if (omega > 0.0) {
    const double y_star = psi.derivative_inverse(beta / omega);
    if (y_star > 0.0 && y_star < y_min) {
      const double u = omega * psi(y_star) - beta * y_star;
      if (u > best_below) {
        best_below = u;
        best_below_y = y_star;
      }
    }
  }

  // Best utility meeting the threshold: payment + omega psi(y) - beta y on
  // [y_min, limit]; the free part is maximized at y_min or the stationary
  // point of the feedback motive.
  double best_meet_y = y_min;
  double best_meet = payment + omega * psi(y_min) - beta * y_min;
  if (omega > 0.0) {
    const double y_star = psi.derivative_inverse(beta / omega);
    if (y_star > y_min && y_star < limit) {
      const double u = payment + omega * psi(y_star) - beta * y_star;
      if (u > best_meet) {
        best_meet = u;
        best_meet_y = y_star;
      }
    }
  }

  FixedContractOutcome out;
  out.accepted = best_meet > best_below + 1e-12;
  out.effort = out.accepted ? best_meet_y : best_below_y;
  out.feedback = psi(out.effort);
  out.compensation = out.accepted ? payment : 0.0;
  out.worker_utility = out.accepted ? best_meet : best_below;
  out.requester_utility =
      spec.weight * out.feedback - spec.mu * out.compensation;
  return out;
}

OracleOutcome oracle_optimal(const SubproblemSpec& spec,
                             std::size_t grid_points) {
  spec.validate();
  CCD_CHECK_MSG(grid_points >= 2, "oracle grid needs at least two points");
  const auto& psi = spec.psi;
  const double beta = spec.incentives.beta;
  const double omega = spec.incentives.omega;
  const double domain = spec.resolved_domain();

  OracleOutcome best;
  best.effort = 0.0;
  best.compensation = 0.0;
  best.requester_utility = spec.weight * psi(0.0);
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double y = domain * static_cast<double>(i) /
                     static_cast<double>(grid_points - 1);
    const double c_min =
        std::max(0.0, beta * y - omega * (psi(y) - psi(0.0)));
    const double utility = spec.weight * psi(y) - spec.mu * c_min;
    if (utility > best.requester_utility) {
      best.effort = y;
      best.compensation = c_min;
      best.requester_utility = utility;
    }
  }
  return best;
}

bool OracleCache::Key::operator==(const Key& other) const {
  // Bitwise, matching KeyHash (see DesignCacheKey::operator== for why a
  // value comparison would break the unordered_map invariants).
  return spec == other.spec &&
         std::bit_cast<std::uint64_t>(weight) ==
             std::bit_cast<std::uint64_t>(other.weight) &&
         grid_points == other.grid_points;
}

std::size_t OracleCache::KeyHash::operator()(const Key& key) const {
  std::size_t h = DesignCacheKeyHash{}(key.spec);
  const auto mix = [&h](std::uint64_t v) {
    h ^= std::hash<std::uint64_t>{}(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  };
  mix(std::bit_cast<std::uint64_t>(key.weight));
  mix(key.grid_points);
  return h;
}

OracleOutcome OracleCache::optimal(const SubproblemSpec& spec,
                                   std::size_t grid_points) {
  Key key;
  key.spec = DesignCacheKey::of(spec);
  key.weight = spec.weight + 0.0;  // -0.0 canonicalizes to +0.0
  key.grid_points = grid_points;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  // Compute outside the lock; concurrent misses on the same key both sweep
  // and the first insert wins (identical values either way).
  const OracleOutcome outcome = oracle_optimal(spec, grid_points);
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.emplace(key, outcome).first->second;
}

std::size_t OracleCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace ccd::contract
