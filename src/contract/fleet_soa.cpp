#include "contract/fleet_soa.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "contract/arena.hpp"
#include "contract/design_cache.hpp"
#include "contract/ksweep.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace ccd::contract {

FleetSoA FleetSoA::from_specs(const std::vector<SubproblemSpec>& specs,
                              std::vector<std::exception_ptr>* errors) {
  FleetSoA fleet;
  const std::size_t n = specs.size();
  fleet.weight.resize(n);
  fleet.class_of.resize(n);
  if (errors) errors->assign(n, nullptr);

  std::unordered_map<DesignCacheKey, std::size_t, DesignCacheKeyHash>
      class_of_key;
  std::vector<std::size_t> counts;
  // Specs arrive in runs of one class (the pipeline's workers of a detected
  // class share its fit), so a spec whose key is bitwise-equal to the
  // previous spec's takes that spec's class without a lookup, and
  // try_emplace allocates a map node only for a new class.
  DesignCacheKey previous_key;
  std::size_t cls = npos;
  for (std::size_t i = 0; i < n; ++i) {
    bool valid = true;
    try {
      specs[i].validate();
    } catch (...) {
      if (!errors) throw;
      (*errors)[i] = std::current_exception();
      valid = false;
    }
    const DesignCacheKey key = DesignCacheKey::of(specs[i]);
    if (cls == npos || key != previous_key) {
      const auto [it, inserted] =
          class_of_key.try_emplace(key, fleet.classes());
      if (inserted) {
        fleet.r2.push_back(key.r2);
        fleet.r1.push_back(key.r1);
        fleet.r0.push_back(key.r0);
        fleet.beta.push_back(key.beta);
        fleet.omega.push_back(key.omega);
        fleet.mu.push_back(key.mu);
        fleet.intervals.push_back(static_cast<std::size_t>(key.intervals));
        fleet.domain.push_back(key.domain);
        fleet.first_positive.push_back(npos);
        counts.push_back(0);
      }
      cls = it->second;
      previous_key = key;
    }
    fleet.class_of[i] = cls;
    fleet.weight[i] = specs[i].weight;
    ++counts[cls];
    if (valid && specs[i].weight > 0.0 && fleet.first_positive[cls] == npos) {
      fleet.first_positive[cls] = i;
    }
  }

  const std::size_t classes = fleet.classes();
  fleet.class_begin.assign(classes + 1, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    fleet.class_begin[c + 1] = fleet.class_begin[c] + counts[c];
  }
  fleet.order.resize(n);
  fleet.grouped_weight.resize(n);
  std::vector<std::size_t> cursor(fleet.class_begin.begin(),
                                  fleet.class_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = cursor[fleet.class_of[i]]++;
    fleet.order[pos] = i;
    fleet.grouped_weight[pos] = fleet.weight[i];
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
  for (std::size_t i = 0; i < fleet.workers(); ++i) {
    if (fleet.weight[i] <= 0.0 || !acquired[fleet.class_of[i]]) continue;
    ++cacheable;
    cacheable_steps += fleet.intervals[fleet.class_of[i]];
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

  std::size_t classes_ran = 0;
  std::size_t classes_ran_steps = 0;
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    if (!acquired[c]) continue;
    ++classes_ran;
    classes_ran_steps += fleet.intervals[c];
  }
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

std::vector<DesignResult> design_contracts_batch(
    const std::vector<SubproblemSpec>& specs, const BatchOptions& options,
    DesignCacheStats* stats) {
  util::ThreadPool& pool = options.pool ? *options.pool : util::shared_pool();
  DesignCache* const cache = options.cache;

  const std::size_t n = specs.size();
  std::vector<DesignResult> results(n);
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
  const FleetSoA fleet = FleetSoA::from_specs(specs, errors);
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
  // workers, written out as plain per-worker fields plus the winning
  // candidate's Contract, built once per (class, k) and shared by the
  // class's workers that select it. Classes write disjoint results, so
  // they parallelize freely.
  const auto design_class = [&](std::size_t c) {
    const std::size_t begin = fleet.class_begin[c];
    const std::size_t count = fleet.class_begin[c + 1] - begin;
    const SubproblemSpec cls = fleet.class_spec(c);

    // The §V zero-contract response is weight-independent: computed once
    // per class, and only when a member is excluded.
    std::optional<BestResponse> zero;
    const auto exclude = [&](DesignResult& result) {
      if (!zero) zero = best_response(Contract(), cls.psi, cls.incentives);
      result.excluded = true;
      result.response = *zero;
    };
    // Only weight-excluded members remain to design (every member is one,
    // or the class's k-sweep failed): no table.
    const auto exclude_only = [&] {
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = fleet.order[begin + j];
        if (fleet.weight[i] > 0.0 || (errors && (*errors)[i])) continue;
        exclude(results[i]);
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
    // exact bit pattern the caller passed.
    thread_local ResolveScratch scratch;
    const SubproblemSpec& spec = specs[fleet.first_positive[c]];
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
        const std::size_t i = fleet.order[begin + j];
        if (fleet.weight[i] > 0.0) (*errors)[i] = error;
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
    resolve_class(tableau, fleet.grouped_weight.data() + begin, count,
                  ResolveOut{scratch.k_opt.data(), utility, upper});

    const double delta = cls.delta();
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = fleet.order[begin + j];
      const double w = fleet.grouped_weight[begin + j];
      DesignResult& result = results[i];
      if (w <= 0.0) {
        exclude(result);
        resolved[i] = 1;
        continue;
      }
      try {
        CCD_FAULT_POINT("contract.design", fault_key(specs[i]),
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
        result.response = table->responses[k - 1];
        result.k_opt = k;
        result.requester_utility = utility[j];
        result.upper_bound = upper[j];
        result.lower_bound = theorem41_lower_bound(
            cls.psi, w, cls.mu, cls.incentives.beta, delta, k);
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
  return results;
}

}  // namespace ccd::contract
