// Spec-keyed memoization of the contract designer's k-sweep, and a batched
// front end for fleet-scale design.
//
// The pipeline's decomposition (§IV-B) hands every worker of the same
// detected class an identical (psi, beta, omega, mu, intervals, domain)
// subproblem — only the Eq. 5 weight differs. The k-sweep (the payment
// prefix and one best-response scan over every candidate) is
// weight-independent, so the cache computes one DesignTable per distinct
// spec and resolves each worker as a cheap argmax_k (weight * feedback_k -
// mu * pay_k) over the cached per-k responses. Results are bitwise-identical to the uncached
// per-worker design_contract() path (tested), and independent of thread
// count: parallelism only reorders which spec computes its table first,
// never what the table contains.
//
// Keys compare doubles bitwise. That is deliberate: the sharing pattern we
// exploit is "same class fit object copied into many specs", which is
// exact; a near-miss spec simply misses and computes its own table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "contract/designer.hpp"
#include "util/metrics.hpp"

namespace ccd::util {
class CancellationToken;
class ThreadPool;
}

namespace ccd::contract {

/// Canonical cache key: every SubproblemSpec field the k-sweep reads —
/// i.e. everything except `weight`. The effort domain is stored resolved,
/// so an explicit domain equal to psi.usable_domain() shares a table with
/// the default.
struct DesignCacheKey {
  double r2 = 0.0;  ///< psi coefficients
  double r1 = 0.0;
  double r0 = 0.0;
  double beta = 0.0;
  double omega = 0.0;
  double mu = 0.0;
  std::uint64_t intervals = 0;
  double domain = 0.0;  ///< resolved effort domain

  /// Canonicalizes the double fields: -0.0 normalizes to +0.0, so the
  /// documented "same class fit copied into many specs" sharing survives a
  /// sign-of-zero difference (e.g. omega = -0.0 vs 0.0).
  static DesignCacheKey of(const SubproblemSpec& spec);

  /// Equality is *bitwise* (per field, on the bit patterns), matching
  /// DesignCacheKeyHash. A defaulted (value) equality would violate the
  /// unordered_map invariant "equal keys hash equally": -0.0 == +0.0
  /// compares true but the bit patterns hash differently (duplicate tables
  /// and missed hits), and a NaN field would compare unequal to itself so
  /// such a key could never be found again.
  bool operator==(const DesignCacheKey& other) const;
};

struct DesignCacheKeyHash {
  std::size_t operator()(const DesignCacheKey& key) const;
};

/// Counters describing how much k-sweep work the cache absorbed. A
/// "lookup" is one cacheable resolution: a spec with weight > 0 whose
/// class's table was acquired, even if its "contract.design" fault then
/// fires. One k-sweep answers `intervals` candidates, so the uncached path
/// would have run `lookups` sweeps where the cache ran `misses`.
///
/// These per-cache (or per-call) stats are snapshots taken under the cache
/// mutex / after the batch joins — safe to read single-threaded. The
/// authoritative process-wide counters are the atomic `ccd.cache.*`
/// registry metrics (see util/metrics.hpp), which every cache mirrors its
/// increments into; hot paths must never bump plain fields concurrently.
struct DesignCacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Candidate evaluations actually run (sum of intervals over misses).
  std::size_t sweep_steps_computed = 0;
  /// Candidate evaluations served from cache (sum of intervals over hits).
  std::size_t sweep_steps_avoided = 0;

  DesignCacheStats& operator+=(const DesignCacheStats& other);
};

/// Thread-safe table cache. Lookup and insertion hold a mutex; table
/// construction runs outside it, so concurrent misses on *different* specs
/// proceed in parallel. Two threads missing the same spec may both build
/// it — the first insert wins and both use that table, keeping results
/// deterministic.
class DesignCache {
 public:
  /// Adds the tables still held to `ccd.cache.evictions`, as clear() does,
  /// so `ccd.cache.misses - ccd.cache.evictions` counts the tables alive
  /// in the process.
  ~DesignCache();

  /// Design one contract through the cache. Equivalent (bitwise) to
  /// design_contract(spec). No production path calls it: it is the
  /// per-spec reference for design_contracts_batch's results and counters.
  DesignResult design(const SubproblemSpec& spec);

  /// Fetch (or compute and insert) the table for a spec. `was_hit`, when
  /// non-null, reports whether the table already existed.
  std::shared_ptr<const DesignTable> table_for(const SubproblemSpec& spec,
                                               bool* was_hit = nullptr);

  DesignCacheStats stats() const;
  std::size_t size() const;
  /// Drops tables and resets the per-cache counters (the dropped-table
  /// count is added to the `ccd.cache.evictions` registry counter).
  void clear();

 private:
  friend void design_contracts_in_place(const struct BatchView&,
                                        const struct BatchOptions&,
                                        DesignCacheStats*);

  void record(const DesignCacheStats& delta);

  mutable std::mutex mutex_;
  std::unordered_map<DesignCacheKey, std::shared_ptr<const DesignTable>,
                     DesignCacheKeyHash>
      tables_;
  DesignCacheStats stats_;
};

/// Add `delta` to the process-wide `ccd.cache.*` counters and `evicted`
/// to `ccd.cache.evictions`, as a DesignCache does for its own lookups and
/// dropped tables. design_contracts_batch calls it for the tables it builds
/// without a cache, so the counters read as if a private cache had held
/// them.
void record_cache_counters(const DesignCacheStats& delta, std::size_t evicted);

/// Where one design_contracts_in_place call reads its specs and writes its
/// results: `count` entries in the caller's own storage. Entry i's spec is
/// the SubproblemSpec `i * spec_stride` bytes past `specs` and its result
/// the DesignResult `i * result_stride` bytes past `results`, so specs and
/// results may be members of larger records (the pipeline's subproblems)
/// and are designed where they live, without a copy.
struct BatchView {
  std::size_t count = 0;
  const SubproblemSpec* specs = nullptr;
  std::size_t spec_stride = sizeof(SubproblemSpec);
  DesignResult* results = nullptr;
  std::size_t result_stride = sizeof(DesignResult);
  /// When non-null, weights[i] is the weight entry i is designed with, in
  /// place of its spec's own: exclusion and the "contract.design" fault key
  /// read it, so a 0 here is the §V exclusion with no fault point at any
  /// spec weight. The other spec fields never depend on the weight.
  const double* weights = nullptr;

  /// A view over the `spec` and `result` members of `count` records.
  template <typename Record>
  static BatchView over(Record* records, std::size_t count,
                        SubproblemSpec Record::*spec,
                        DesignResult Record::*result) {
    BatchView view;
    view.count = count;
    if (count == 0) return view;
    view.specs = &(records->*spec);
    view.spec_stride = sizeof(Record);
    view.results = &(records->*result);
    view.result_stride = sizeof(Record);
    return view;
  }

  const SubproblemSpec& spec(std::size_t i) const {
    return *reinterpret_cast<const SubproblemSpec*>(
        reinterpret_cast<const char*>(specs) + i * spec_stride);
  }
  DesignResult& result(std::size_t i) const {
    return *reinterpret_cast<DesignResult*>(reinterpret_cast<char*>(results) +
                                            i * result_stride);
  }
  double weight(std::size_t i) const {
    return weights != nullptr ? weights[i] : spec(i).weight;
  }
  /// Entry i's spec as the batch designs it: its own fields, weight(i).
  SubproblemSpec priced(std::size_t i) const {
    SubproblemSpec out = spec(i);
    out.weight = weight(i);
    return out;
  }
};

struct BatchOptions {
  /// Pool for the fan-out; null uses util::shared_pool().
  util::ThreadPool* pool = nullptr;
  /// Cache reused across calls (e.g. across pipeline rounds). Null builds
  /// each class's table into a per-thread scratch table, reused by the
  /// thread's next class: the classes of one call are distinct, so a
  /// per-call cache could never hit. The call's DesignCacheStats and the
  /// `ccd.cache.*` counters read as if a private cache had held the
  /// tables.
  DesignCache* cache = nullptr;
  /// When non-null, each distinct-spec k-sweep records its wall time here
  /// (microseconds) — the batched path's per-community/per-class solve
  /// spans. Per-worker resolves are not timed: they are orders of
  /// magnitude cheaper than a sweep and the clock reads would dominate.
  util::metrics::Histogram* sweep_histogram = nullptr;
  /// Cooperative cancellation (null runs to completion). Polled between
  /// classes: a class is designed whole (table and every worker) or not
  /// at all, and after cancellation the batch returns with the remaining
  /// results left as they were. Callers use `resolved` to tell completed
  /// entries apart.
  const util::CancellationToken* cancel = nullptr;
  /// When non-null, resized to the entry count; (*resolved)[i] is 1 iff
  /// result i was actually designed (always all-ones unless cancelled or,
  /// with `errors`, failed).
  std::vector<std::uint8_t>* resolved = nullptr;
  /// Per-spec error sink. Null: the first failure propagates. Non-null:
  /// resized to the entry count; a spec whose design_contract(spec) would
  /// throw gets that error here, its result untouched and resolved 0, and
  /// the other specs are still designed. Validation fails a whole class, its
  /// k-sweep every positive-weight member, the "contract.design" fault
  /// point one spec.
  std::vector<std::exception_ptr>* errors = nullptr;
};

/// Design contracts for a whole fleet, in place — the one fleet-design
/// path every caller uses: one pool task per distinct spec class, in
/// parallel, that gets the class's k-sweep (from the cache or a fresh
/// sweep) and then runs one vectorized resolve_class pass over its workers
/// (see ksweep.hpp and fleet_soa.hpp). Each designed entry's result is
/// overwritten whole and is bitwise-identical to
/// design_contract(view.priced(i)) regardless of thread count, cache state,
/// or which kernel the CPU runs; an entry left unresolved (cancelled, or
/// failed into the error sink) keeps what its result held. Runs the
/// "contract.design" fault point once per positive-weight entry. `stats`,
/// when non-null, receives this call's counters (prior contents
/// overwritten).
void design_contracts_in_place(const BatchView& view,
                               const BatchOptions& options = {},
                               DesignCacheStats* stats = nullptr);

/// design_contracts_in_place over a vector of specs, into a vector of
/// default-constructed results in the same order: results[i] is
/// bitwise-identical to design_contract(specs[i]), and an unresolved entry
/// stays default-constructed.
std::vector<DesignResult> design_contracts_batch(
    const std::vector<SubproblemSpec>& specs,
    const BatchOptions& options = {}, DesignCacheStats* stats = nullptr);

}  // namespace ccd::contract
