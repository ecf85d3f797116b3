// Collusive-community clustering (paper §IV-A).
//
// Rule: two malicious workers collude iff they target the same product.
// Build the auxiliary graph over the malicious worker set with an edge per
// shared target; collusive communities are the connected components with
// >= 2 members, found by DFS. Workers in singleton components are the
// non-collusive malicious ("NCM") workers.
//
// Materializing same-product edges is quadratic per product in the worst
// case, so the default backend links via union-find, uniting each worker
// with the first worker seen on each of its products (identical partition,
// near-linear time, flat arrays only); the explicit DFS backend is kept to
// mirror the paper and cross-check.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "data/trace.hpp"

namespace ccd::detect {

struct Community {
  std::vector<data::WorkerId> members;
  /// Distinct products targeted by the community.
  std::vector<data::ProductId> targets;
};

struct CollusionResult {
  /// Communities with >= 2 members, sorted by descending size.
  std::vector<Community> communities;
  /// Malicious workers not in any community.
  std::vector<data::WorkerId> non_collusive;
  /// community_of[worker] = index into `communities`, or -1.
  std::vector<std::int32_t> community_of;
};

enum class ClusterBackend { kUnionFind, kDfsGraph };

/// Cluster the given malicious workers by the shared-target rule.
CollusionResult cluster_collusive_workers(
    const data::ReviewTrace& trace,
    const std::vector<data::WorkerId>& malicious_workers,
    ClusterBackend backend = ClusterBackend::kUnionFind);

/// Convenience: cluster the ground-truth malicious set.
CollusionResult cluster_ground_truth_malicious(
    const data::ReviewTrace& trace,
    ClusterBackend backend = ClusterBackend::kUnionFind);

/// Community-size census (the paper's Table II): share of communities with
/// size 2, 3, 4, 5, 6, and >= 10 — plus the 7-9 bucket the paper omits.
struct CommunityCensus {
  std::size_t communities = 0;
  std::size_t workers = 0;
  double pct_size2 = 0.0;
  double pct_size3 = 0.0;
  double pct_size4 = 0.0;
  double pct_size5 = 0.0;
  double pct_size6 = 0.0;
  double pct_size7to9 = 0.0;
  double pct_size10plus = 0.0;

  std::string to_string() const;
};

CommunityCensus census(const CollusionResult& result);

}  // namespace ccd::detect
