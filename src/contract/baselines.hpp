// Baseline pricing strategies the paper compares against, plus a fine-grid
// oracle used by the ablation benches.
//
//  * Fixed-threshold payment: the classic crowdsourcing contract — a flat
//    payment c for completing the task to a minimum standard (feedback of
//    at least psi(y_min)); the related-work strategy the paper's intro
//    criticizes. Workers best-respond in closed form.
//  * Exclusion: remove all suspected malicious workers (Fig. 8(c)'s
//    baseline). Exposed here as a per-worker decision; the pipeline applies
//    it fleet-wide.
//  * Oracle: the best utility any incentive-compatible payment rule could
//    extract from this worker, found by fine-grid search over induced
//    effort with the minimum payment that makes that effort individually
//    rational. Upper reference for near-optimality claims.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "contract/design_cache.hpp"
#include "contract/designer.hpp"

namespace ccd::contract {

struct FixedContractOutcome {
  bool accepted = false;       ///< worker chose to meet the threshold
  double effort = 0.0;
  double feedback = 0.0;
  double compensation = 0.0;   ///< payment if accepted, else 0
  double worker_utility = 0.0;
  double requester_utility = 0.0;
};

/// Fixed payment `payment` for reaching effort >= y_min (feedback >=
/// psi(y_min)). The worker compares the best utility meeting the threshold
/// against the best utility below it.
FixedContractOutcome fixed_threshold_baseline(const SubproblemSpec& spec,
                                              double payment, double y_min);

struct OracleOutcome {
  double effort = 0.0;
  double compensation = 0.0;  ///< minimum IR payment inducing that effort
  double requester_utility = 0.0;
};

/// Fine-grid oracle: max over induced effort y of
///   w psi(y) - mu * c_min(y),
/// where c_min(y) = max(0, beta y - omega (psi(y) - psi(0))) is the smallest
/// payment making effort y individually rational against the worker's
/// outside option (zero effort).
OracleOutcome oracle_optimal(const SubproblemSpec& spec,
                             std::size_t grid_points = 4001);

/// Memoized front end for oracle_optimal. Unlike the k-sweep, the oracle
/// *does* depend on spec.weight, so the key is the DesignCacheKey
/// canonicalization (every k-sweep input, -0.0 normalized to +0.0, bitwise
/// compare) extended with the canonicalized weight and the grid size.
/// A regret bench querying the oracle per worker per round pays for one
/// grid sweep per distinct (spec, weight, grid) instead of one per call.
class OracleCache {
 public:
  /// Equivalent (bitwise) to oracle_optimal(spec, grid_points).
  OracleOutcome optimal(const SubproblemSpec& spec,
                        std::size_t grid_points = 4001);

  std::size_t size() const;

 private:
  struct Key {
    DesignCacheKey spec;
    double weight = 0.0;
    std::uint64_t grid_points = 0;
    bool operator==(const Key& other) const;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, OracleOutcome, KeyHash> entries_;
};

}  // namespace ccd::contract
