#include "contract/fleet_soa.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "contract/arena.hpp"
#include "contract/design_cache.hpp"
#include "contract/ksweep.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace ccd::contract {

namespace {

// The classes of one grouping, found by canonical key: open addressing with
// linear probing over DesignCacheKeyHash, bitwise key equality, at most
// half the slots full. A slot holds its class id + 1 (0: empty), and the
// classes' keys and hashes sit in one flat array, so a new class costs no
// node of its own.
class ClassIndex {
 public:
  struct Entry {
    DesignCacheKey key;
    std::size_t hash = 0;
    std::size_t count = 0;  ///< workers of the class
    std::size_t first_positive = FleetSoA::npos;
  };

  /// The class of `key`, added as the next id if it is new.
  std::size_t find_or_add(const DesignCacheKey& key) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    const std::size_t hash = DesignCacheKeyHash{}(key);
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
      const std::size_t cls = slots_[slot] - 1;
      if (entries_[cls].hash == hash && entries_[cls].key == key) return cls;
    }
    slots_[slot] = entries_.size() + 1;
    entries_.push_back(Entry{key, hash});
    return entries_.size() - 1;
  }

  Entry& operator[](std::size_t cls) { return entries_[cls]; }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  void grow() {
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t cls = 0; cls < entries_.size(); ++cls) {
      std::size_t slot = entries_[cls].hash & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = cls + 1;
    }
  }

  std::vector<std::size_t> slots_;  // size a power of two
  std::vector<Entry> entries_;
};

}  // namespace

FleetSoA FleetSoA::from_specs(const std::vector<SubproblemSpec>& specs,
                              std::vector<std::exception_ptr>* errors) {
  BatchView view;
  view.count = specs.size();
  view.specs = specs.data();
  return from_specs(view, errors);
}

FleetSoA FleetSoA::from_specs(const BatchView& view,
                              std::vector<std::exception_ptr>* errors) {
  FleetSoA fleet;
  const std::size_t n = view.count;
  fleet.class_of.resize(n);
  if (errors) errors->assign(n, nullptr);

  ClassIndex index;
  // Specs arrive in runs of one class (the pipeline's workers of a detected
  // class share its fit), so a spec whose key is bitwise-equal to the
  // previous spec's takes that spec's class without a lookup.
  DesignCacheKey previous_key;
  std::size_t cls = npos;
  for (std::size_t i = 0; i < n; ++i) {
    const SubproblemSpec& spec = view.spec(i);
    bool valid = true;
    try {
      spec.validate();
    } catch (...) {
      if (!errors) throw;
      (*errors)[i] = std::current_exception();
      valid = false;
    }
    const DesignCacheKey key = DesignCacheKey::of(spec);
    if (cls == npos || key != previous_key) {
      cls = index.find_or_add(key);
      previous_key = key;
    }
    fleet.class_of[i] = cls;
    ClassIndex::Entry& entry = index[cls];
    ++entry.count;
    if (valid && view.weight(i) > 0.0 && entry.first_positive == npos) {
      entry.first_positive = i;
    }
  }

  const std::vector<ClassIndex::Entry>& entries = index.entries();
  const std::size_t classes = entries.size();
  for (std::vector<double>* column :
       {&fleet.r2, &fleet.r1, &fleet.r0, &fleet.beta, &fleet.omega, &fleet.mu,
        &fleet.domain}) {
    column->resize(classes);
  }
  fleet.intervals.resize(classes);
  fleet.first_positive.resize(classes);
  fleet.class_begin.assign(classes + 1, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    const DesignCacheKey& key = entries[c].key;
    fleet.r2[c] = key.r2;
    fleet.r1[c] = key.r1;
    fleet.r0[c] = key.r0;
    fleet.beta[c] = key.beta;
    fleet.omega[c] = key.omega;
    fleet.mu[c] = key.mu;
    fleet.intervals[c] = static_cast<std::size_t>(key.intervals);
    fleet.domain[c] = key.domain;
    fleet.first_positive[c] = entries[c].first_positive;
    fleet.class_begin[c + 1] = fleet.class_begin[c] + entries[c].count;
  }

  fleet.order.resize(n);
  fleet.grouped_weight.resize(n);
  std::vector<std::size_t> cursor(fleet.class_begin.begin(),
                                  fleet.class_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = cursor[fleet.class_of[i]]++;
    fleet.order[pos] = i;
    fleet.grouped_weight[pos] = view.weight(i);
  }
  return fleet;
}

SubproblemSpec FleetSoA::class_spec(std::size_t c) const {
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(r2[c], r1[c], r0[c]);
  spec.incentives.beta = beta[c];
  spec.incentives.omega = omega[c];
  spec.weight = 1.0;
  spec.mu = mu[c];
  spec.intervals = intervals[c];
  spec.effort_domain = domain[c];  // stored resolved, always > 0
  return spec;
}

namespace {

// The batch's per-call accounting, computed from the fleet arrays once its
// classes have run, by class: a class whose table was acquired counts each
// positive-weight member as one lookup, also one whose "contract.design"
// fault then fired, as DesignCache::design would. Returns the per-call
// snapshot and the `extra` delta the caller records into the cache for
// per-worker resolutions served without touching the map.
struct FleetCallStats {
  DesignCacheStats call;
  DesignCacheStats extra;
};

FleetCallStats fleet_call_stats(const FleetSoA& fleet,
                                const std::vector<std::uint8_t>& acquired,
                                std::size_t sweeps_computed,
                                std::uint64_t sweep_steps_computed) {
  std::size_t cacheable = 0;
  std::size_t cacheable_steps = 0;
  std::size_t classes_ran = 0;
  std::size_t classes_ran_steps = 0;
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    if (!acquired[c]) continue;
    ++classes_ran;
    classes_ran_steps += fleet.intervals[c];
    for (std::size_t pos = fleet.class_begin[c]; pos < fleet.class_begin[c + 1];
         ++pos) {
      if (fleet.grouped_weight[pos] <= 0.0) continue;
      ++cacheable;
      cacheable_steps += fleet.intervals[c];
    }
  }

  FleetCallStats out;
  out.call.lookups = cacheable;
  out.call.misses = sweeps_computed;
  out.call.hits = out.call.lookups > out.call.misses
                      ? out.call.lookups - out.call.misses : 0;
  out.call.sweep_steps_computed =
      static_cast<std::size_t>(sweep_steps_computed);
  out.call.sweep_steps_avoided =
      cacheable_steps > out.call.sweep_steps_computed
          ? cacheable_steps - out.call.sweep_steps_computed : 0;

  out.extra.lookups = cacheable > classes_ran ? cacheable - classes_ran : 0;
  out.extra.hits = out.extra.lookups;
  out.extra.sweep_steps_avoided =
      cacheable_steps > classes_ran_steps ? cacheable_steps - classes_ran_steps
                                          : 0;
  return out;
}

// Scratch, one per thread and reused across classes and calls, so a
// fleet of many small classes (an ingest refit: one class per worker)
// pays no per-class heap allocation beyond the contracts it hands out.
struct ResolveScratch {
  /// The class's table when the batch has no cache, rebuilt in place per
  /// class; its capacity follows the largest m this thread has designed.
  DesignTable table;
  ScratchArena arena;
  std::vector<std::size_t> k_opt;
  /// The class's contracts built so far, one per selected k; emptied per
  /// class, so no contract outlives the results that hold it.
  std::vector<std::pair<std::size_t, Contract>> built;

  const Contract& contract_for(const DesignTable& from, std::size_t k) {
    for (const auto& [built_k, contract] : built) {
      if (built_k == k) return contract;
    }
    built.emplace_back(k, from.candidate(k));
    return built.back().second;
  }
};

}  // namespace

void design_contracts_in_place(const BatchView& view,
                               const BatchOptions& options,
                               DesignCacheStats* stats) {
  util::ThreadPool& pool = options.pool ? *options.pool : util::shared_pool();
  DesignCache* const cache = options.cache;

  const std::size_t n = view.count;
  std::vector<std::uint8_t> resolved_local;
  std::vector<std::uint8_t>& resolved =
      options.resolved ? *options.resolved : resolved_local;
  resolved.assign(n, 0);
  std::vector<std::exception_ptr>* const errors = options.errors;

  // SoA grouping: a class is the canonical weight-excluded cache key, in
  // first-occurrence order, with each class's workers gathered into a
  // contiguous CSR slice. Validates every spec in input order; with the
  // sink, an invalid spec's error lands there (validation reads only the
  // class key, so its whole class fails) and it is never designed.
  const FleetSoA fleet = FleetSoA::from_specs(view, errors);
  // Classes whose table was acquired (written by their own task only).
  std::vector<std::uint8_t> acquired(fleet.classes(), 0);

  std::atomic<std::size_t> computed{0};
  std::atomic<std::uint64_t> steps_computed{0};
  // Without a cache, the tables built so far count once the classes stop,
  // also when one throws, as a private cache's misses would: a lookup and
  // a miss each, and an eviction, since the call drops them.
  const auto count_built = [&] {
    if (cache) return;
    DesignCacheStats delta;
    delta.lookups = computed.load();
    delta.misses = delta.lookups;
    delta.sweep_steps_computed = steps_computed.load();
    record_cache_counters(delta, delta.misses);
  };

  // One task per class: acquire its table, then one kernel pass over its
  // workers, written straight into each worker's result: plain fields plus
  // the winning candidate's Contract, built once per (class, k) and shared
  // by the class's workers that select it. Classes write disjoint results,
  // so they parallelize freely.
  const auto design_class = [&](std::size_t c) {
    const std::size_t begin = fleet.class_begin[c];
    const std::size_t count = fleet.class_begin[c + 1] - begin;
    const double* const weights = fleet.grouped_weight.data() + begin;
    const SubproblemSpec cls = fleet.class_spec(c);

    // The §V zero-contract result is weight-independent: computed once per
    // class, and only when a member is excluded.
    std::optional<DesignResult> zero;
    const auto exclude = [&](DesignResult& result) {
      if (!zero) {
        zero.emplace();
        zero->excluded = true;
        zero->response = best_response(Contract(), cls.psi, cls.incentives);
      }
      result = *zero;
    };
    // Only weight-excluded members remain to design (every member is one,
    // or the class's k-sweep failed): no table.
    const auto exclude_only = [&] {
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = fleet.order[begin + j];
        if (weights[j] > 0.0 || (errors && (*errors)[i])) continue;
        exclude(view.result(i));
        resolved[i] = 1;
      }
    };
    if (fleet.first_positive[c] == FleetSoA::npos) {
      exclude_only();
      return;
    }

    // The table: a cache lookup, or a k-sweep into this thread's scratch
    // (FleetSoA::from_specs already made the classes distinct, so a
    // per-call cache could never hit). The representative is the caller's
    // own spec object, so what reaches the cache (or the sweep) is the
    // exact bit pattern the caller passed; neither reads its weight.
    thread_local ResolveScratch scratch;
    const SubproblemSpec& spec = view.spec(fleet.first_positive[c]);
    std::shared_ptr<const DesignTable> cached;
    const DesignTable* table = &scratch.table;
    bool was_hit = false;
    try {
      // Span of this class's table (see BatchOptions::sweep_histogram; a
      // cache hit records the cheap lookup instead of a sweep).
      util::metrics::ScopedTimer timer(options.sweep_histogram);
      if (cache) {
        cached = cache->table_for(spec, &was_hit);
        table = cached.get();
      } else {
        build_design_table(spec, scratch.table);
      }
    } catch (...) {
      if (!errors) throw;
      // The sweep fails every positive-weight member, as each one's own
      // design_contract would.
      const std::exception_ptr error = std::current_exception();
      for (std::size_t j = 0; j < count; ++j) {
        if (weights[j] > 0.0) (*errors)[fleet.order[begin + j]] = error;
      }
      exclude_only();
      return;
    }
    acquired[c] = 1;
    if (!was_hit) {
      computed.fetch_add(1, std::memory_order_relaxed);
      steps_computed.fetch_add(fleet.intervals[c], std::memory_order_relaxed);
    }

    scratch.arena.reset();
    scratch.built.clear();
    const ClassTableau tableau =
        build_class_tableau(cls, *table, scratch.arena);
    double* utility = scratch.arena.doubles(count);
    double* upper = scratch.arena.doubles(count);
    scratch.k_opt.resize(count);
    resolve_class(tableau, weights, count,
                  ResolveOut{scratch.k_opt.data(), utility, upper});

    const double delta = cls.delta();
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = fleet.order[begin + j];
      const double w = weights[j];
      DesignResult& result = view.result(i);
      if (w <= 0.0) {
        exclude(result);
        resolved[i] = 1;
        continue;
      }
      try {
        CCD_FAULT_POINT("contract.design", fault_key(view.priced(i)),
                        ContractError);
      } catch (...) {
        if (!errors) throw;
        (*errors)[i] = std::current_exception();
        continue;
      }
      if (utility[j] < 0.0) {
        exclude(result);  // §V fallback: zero contract
      } else {
        const std::size_t k = scratch.k_opt[j];
        result.contract = scratch.contract_for(*table, k);
        result.k_opt = k;
        result.response = table->responses[k - 1];
        result.requester_utility = utility[j];
        result.upper_bound = upper[j];
        result.lower_bound = theorem41_lower_bound(
            cls.psi, w, cls.mu, cls.incentives.beta, delta, k);
        result.excluded = false;
      }
      resolved[i] = 1;
    }
    scratch.built.clear();
  };
  try {
    pool.parallel_for(fleet.classes(), design_class, options.cancel);
  } catch (...) {
    count_built();
    throw;
  }
  count_built();

  const FleetCallStats fcs = fleet_call_stats(
      fleet, acquired, computed.load(), steps_computed.load());
  if (stats) *stats = fcs.call;
  if (cache) {
    cache->record(fcs.extra);
  } else {
    record_cache_counters(fcs.extra, 0);
  }
}

std::vector<DesignResult> design_contracts_batch(
    const std::vector<SubproblemSpec>& specs, const BatchOptions& options,
    DesignCacheStats* stats) {
  std::vector<DesignResult> results(specs.size());
  BatchView view;
  view.count = specs.size();
  view.specs = specs.data();
  view.results = results.data();
  design_contracts_in_place(view, options, stats);
  return results;
}

}  // namespace ccd::contract
