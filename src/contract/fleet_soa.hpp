// Structure-of-arrays fleet layout behind design_contracts_in_place.
//
// Workers are bucketed by spec class (the weight-excluded DesignCacheKey —
// same canonicalization, so a class is exactly a cache entry) with the
// per-class scalar fields in contiguous arrays and the per-worker weights
// gathered contiguously per class (CSR). One class then designs with a
// single k-sweep and one vectorized resolve_class pass over its weight
// slice (see ksweep.hpp). Classes are found through a flat open-addressing
// index over the canonical keys, so a new class allocates nothing of its
// own.
#pragma once

#include <cstddef>
#include <exception>
#include <vector>

#include "contract/designer.hpp"

namespace ccd::contract {

struct BatchView;

/// Fleet of design subproblems grouped by spec class, stored as contiguous
/// arrays. Build with from_specs(); all invariants below hold afterwards.
/// Class fields store the *canonical* key values (-0.0 normalized to +0.0,
/// domain resolved), so sign-of-zero twins land in one class; per-worker
/// weights are stored verbatim.
struct FleetSoA {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Per-class scalar fields (length = classes()), indexed by class id in
  // first-occurrence order over the input specs.
  std::vector<double> r2, r1, r0;        ///< psi coefficients
  std::vector<double> beta, omega;       ///< worker incentives
  std::vector<double> mu;                ///< requester compensation weight
  std::vector<std::size_t> intervals;    ///< m
  std::vector<double> domain;            ///< resolved effort domain (> 0)
  /// First valid worker (original index) of the class with weight > 0,
  /// or npos when every member is weight-excluded or invalid (no table
  /// needed: §V zero contract for the valid ones).
  std::vector<std::size_t> first_positive;

  // CSR worker grouping.
  std::vector<std::size_t> class_begin;  ///< length classes() + 1
  /// Grouped position -> original worker index. Workers of class c occupy
  /// order[class_begin[c] .. class_begin[c + 1]), in input order.
  std::vector<std::size_t> order;
  /// Weights gathered into grouped order (parallel to `order`) — the
  /// contiguous slice the SIMD resolve reads.
  std::vector<double> grouped_weight;

  /// Class of each worker, in original order (length = workers()).
  std::vector<std::size_t> class_of;

  std::size_t workers() const { return class_of.size(); }
  std::size_t classes() const { return intervals.size(); }

  /// Validate and group specs. Without `errors`, throws what
  /// SubproblemSpec::validate() throws, on the first invalid spec (in
  /// input order). With `errors`, resized to specs.size(), each invalid
  /// spec's exception lands at its index instead; the spec is still
  /// grouped, but never as its class's first positive member.
  static FleetSoA from_specs(const std::vector<SubproblemSpec>& specs,
                             std::vector<std::exception_ptr>* errors = nullptr);

  /// The same over a view's entries, read where they live; worker i's
  /// weight is view.weight(i).
  static FleetSoA from_specs(const BatchView& view,
                             std::vector<std::exception_ptr>* errors = nullptr);

  /// Reconstruct the class's spec with weight 1. Equal (as values) to any
  /// member spec of the class; bitwise-equal except where canonicalization
  /// flipped a -0.0 field or resolved a defaulted domain.
  SubproblemSpec class_spec(std::size_t c) const;
};

}  // namespace ccd::contract
