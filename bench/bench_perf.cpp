// Performance microbenchmarks (google-benchmark): subproblem solve cost vs
// partition density, effort-curve fitting, pipeline throughput vs thread
// count (the paper's motivation for decomposing the bilevel program),
// detect-stage and clustering cost, and the overhead of the util::metrics
// instrumentation (armed vs disarmed).
//
// Unless the caller passes its own --benchmark_out, results are written as
// machine-readable JSON to BENCH_perf.json in the working directory (CI
// uploads it as an artifact).
//
// Like bench_throughput, the binary refuses to publish numbers from
// non-Release builds (exit 3): microbenchmark deltas from -O0/-Og builds
// are noise that reads like regressions. Pass `force=1` to override; the
// benchmark context still records the real build type.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "contract/arena.hpp"
#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "contract/fleet_soa.hpp"
#include "contract/ksweep.hpp"
#include "core/pipeline.hpp"
#include "data/generator.hpp"
#include "data/metrics.hpp"
#include "detect/collusion.hpp"
#include "detect/expert.hpp"
#include "detect/malicious.hpp"
#include "effort/fitting.hpp"
#include "math/polyfit.hpp"
#include "util/cancellation.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "release_gate.hpp"
#include "bench_main.hpp"

namespace {

const ccd::data::ReviewTrace& medium_trace() {
  static const ccd::data::ReviewTrace trace =
      ccd::data::generate_trace(ccd::data::GeneratorParams::medium());
  return trace;
}

/// The amazon2015-sized trace at seed 1, the trace of `ccdctl design
/// preset=full` and of perfbench's design_full.
const ccd::data::ReviewTrace& amazon2015_trace() {
  static const ccd::data::ReviewTrace trace = [] {
    ccd::data::GeneratorParams params =
        ccd::data::GeneratorParams::amazon2015();
    params.seed = 1;
    return ccd::data::generate_trace(params);
  }();
  return trace;
}

/// run_pipeline on amazon2015_trace() on one solve thread, as design_full
/// runs it: 19,608 subproblems in 20 classes, arriving in long runs of one
/// class.
const ccd::core::PipelineResult& amazon2015_result() {
  static const ccd::core::PipelineResult result = [] {
    ccd::core::PipelineConfig config;
    config.threads = 1;
    return ccd::core::run_pipeline(amazon2015_trace(), config);
  }();
  return result;
}

/// Minor page faults of the process so far.
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void BM_DesignContract(benchmark::State& state) {
  ccd::contract::SubproblemSpec spec;
  spec.psi = ccd::effort::QuadraticEffort(-1.0, 8.0, 2.0);
  spec.incentives = {1.0, 0.3};
  spec.weight = 1.0;
  spec.mu = 1.0;
  spec.intervals = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::contract::design_contract(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DesignContract)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_BestResponse(benchmark::State& state) {
  const ccd::effort::QuadraticEffort psi(-1.0, 8.0, 2.0);
  const ccd::contract::WorkerIncentives inc{1.0, 0.2};
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const double delta = psi.usable_domain() / static_cast<double>(m);
  const ccd::contract::Contract c =
      ccd::contract::build_candidate(psi, delta, m, m / 2 + 1, inc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::contract::best_response(c, psi, inc));
  }
}
BENCHMARK(BM_BestResponse)->RangeMultiplier(4)->Range(4, 256);

// ---------------------------------------------------------------------------
// Effort fitting (§IV-B): the least-squares quadratic behind every class,
// community and ingest-refit curve. 256 samples is one ingest session's
// window; 101,835 is the honest class of the amazon2015-sized trace.

std::vector<ccd::data::EffortSample> effort_samples(std::size_t n) {
  ccd::util::Rng rng(7);
  std::vector<ccd::data::EffortSample> samples(n);
  for (ccd::data::EffortSample& s : samples) {
    s.effort = rng.uniform(0.3, 3.5);
    s.feedback =
        -0.9 * s.effort * s.effort + 7.0 * s.effort + 1.5 + 0.8 * rng.normal();
  }
  return samples;
}

void BM_PolyFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> xs, ys;
  for (const ccd::data::EffortSample& s : effort_samples(n)) {
    xs.push_back(s.effort);
    ys.push_back(s.feedback);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::math::polyfit(xs, ys, 2));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_PolyFit)->Arg(256)->Arg(101835)->Unit(benchmark::kMicrosecond);

// The full per-worker fit: sample split, quadratic fit and, when needed,
// the projection onto concave and rising curves.
void BM_FitEffortFunction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<ccd::data::EffortSample> samples = effort_samples(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::effort::fit_effort_function(samples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_FitEffortFunction)->Arg(256)->Arg(101835)
    ->Unit(benchmark::kMicrosecond);

// The class fits as the pipeline runs them, from the trace: fit_all_classes
// on the amazon2015-sized trace (seed 1), whose honest, NCM and CM classes
// hold 101,835, 7,413 and 1,104 samples.
void BM_FitAllClasses(benchmark::State& state) {
  const ccd::data::WorkerMetrics metrics(amazon2015_trace());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::effort::fit_all_classes(metrics));
  }
}
BENCHMARK(BM_FitAllClasses)->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// The detect stage as the pipeline runs it, on the amazon2015-sized trace
// (seed 1): WorkerMetrics, the ExpertPanel over them, the MaliciousDetector
// over the panel, and the detector's evaluate and flagged.
void BM_DetectStage(benchmark::State& state) {
  const ccd::data::ReviewTrace& trace = amazon2015_trace();
  for (auto _ : state) {
    const ccd::data::WorkerMetrics metrics(trace);
    const ccd::detect::ExpertPanel experts(trace, metrics);
    const ccd::detect::MaliciousDetector detector(trace, experts);
    benchmark::DoNotOptimize(detector.evaluate(trace));
    benchmark::DoNotOptimize(detector.flagged());
  }
}
BENCHMARK(BM_DetectStage)->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// An ingest refit's fits: 200 workers' 256-sample windows through the
// batched fit, four per AVX2 lane where the CPU has it (compare with 200 x
// BM_FitEffortFunction/256). One thread, like the session's refit.
void BM_IngestRefitFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ccd::util::Rng rng(13);
  std::vector<std::deque<ccd::data::EffortSample>> windows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r2 = rng.uniform(-1.2, -0.7);
    const double r1 = rng.uniform(6.0, 9.0);
    const double r0 = rng.uniform(0.5, 2.5);
    for (std::size_t s = 0; s < 256; ++s) {
      ccd::data::EffortSample sample;
      sample.worker = static_cast<ccd::data::WorkerId>(i);
      sample.review = static_cast<ccd::data::ReviewId>(s);
      sample.effort = rng.uniform(0.3, 3.5);
      sample.feedback = (r2 * sample.effort + r1) * sample.effort + r0 +
                        0.5 * rng.normal();
      windows[i].push_back(sample);
    }
  }
  std::vector<ccd::effort::EffortFitOutcome> fits;
  for (auto _ : state) {
    ccd::effort::fit_effort_functions(windows, fits);
    benchmark::DoNotOptimize(fits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.SetLabel(ccd::math::quadratic_lanes_available() ? "avx2 lanes"
                                                        : "scalar");
}
BENCHMARK(BM_IngestRefitFit)->Arg(200)->Unit(benchmark::kMicrosecond);

// A fleet with the pipeline's solve-stage shape: every worker of a
// detected class shares one weight-independent spec, only the Eq. 5
// weight varies.
std::vector<ccd::contract::SubproblemSpec> fleet_specs(std::size_t n) {
  const struct {
    double r2, r1, r0, omega;
  } classes[] = {
      {-1.0, 8.0, 2.0, 0.0},  // honest
      {-0.8, 6.0, 1.5, 0.3},  // non-collusive malicious
      {-1.2, 9.0, 2.5, 0.5},  // collusive community fit
      {-0.9, 7.0, 1.0, 0.2},  // a second community fit
  };
  std::vector<ccd::contract::SubproblemSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cls = classes[i % (sizeof(classes) / sizeof(classes[0]))];
    ccd::contract::SubproblemSpec spec;
    spec.psi = ccd::effort::QuadraticEffort(cls.r2, cls.r1, cls.r0);
    spec.incentives = {1.0, cls.omega};
    spec.weight = 0.2 + 0.8 * static_cast<double>(i) / static_cast<double>(n);
    spec.mu = 1.0;
    spec.intervals = 20;
    specs.push_back(spec);
  }
  return specs;
}

// The solve stage's grouping of a design_full run: FleetSoA::from_specs on
// the subproblem specs of amazon2015_result().
void BM_FleetFromSpecs(benchmark::State& state) {
  static const std::vector<ccd::contract::SubproblemSpec> specs = [] {
    std::vector<ccd::contract::SubproblemSpec> out;
    for (const ccd::core::SubproblemOutcome& s :
         amazon2015_result().subproblems) {
      out.push_back(s.spec);
    }
    return out;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::contract::FleetSoA::from_specs(specs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * specs.size()));
  state.counters["specs"] = static_cast<double>(specs.size());
}
BENCHMARK(BM_FleetFromSpecs)->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// The solve stage of a design_full run: the subproblems of
// amazon2015_result() designed where they live, through
// design_contracts_in_place with their weights in one array, on a
// one-thread pool without a cache (process CPU time, which counts the pool
// thread). minflt_per_call counts the minor page faults per call.
void BM_SolveStage(benchmark::State& state) {
  std::vector<ccd::core::SubproblemOutcome> subproblems =
      amazon2015_result().subproblems;
  std::vector<double> weights;
  for (const ccd::core::SubproblemOutcome& s : subproblems) {
    weights.push_back(s.spec.weight);
  }
  ccd::contract::BatchView view = ccd::contract::BatchView::over(
      subproblems.data(), subproblems.size(),
      &ccd::core::SubproblemOutcome::spec,
      &ccd::core::SubproblemOutcome::design);
  view.weights = weights.data();
  ccd::util::ThreadPool pool(1);
  ccd::contract::BatchOptions options;
  options.pool = &pool;
  ccd::contract::DesignCacheStats stats;
  const long faults = minor_faults();
  for (auto _ : state) {
    ccd::contract::design_contracts_in_place(view, options, &stats);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * subproblems.size()));
  state.counters["minflt_per_call"] =
      static_cast<double>(minor_faults() - faults) /
      static_cast<double>(state.iterations());
  state.counters["ksweeps"] = static_cast<double>(stats.misses);
}
BENCHMARK(BM_SolveStage)->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// The resolve kernel alone: resolve_class (each worker's Eq. 43 argmax over
// k and its Theorem 4.1 upper bound) against the tableau of the first
// subproblem's class in amazon2015_result() (m = 20), over the first n
// subproblem weights: one 16-worker pass, and all 19,608 against one
// class. Process CPU time; the label names the kernel this CPU runs.
void BM_ResolveClass(benchmark::State& state) {
  const std::vector<ccd::core::SubproblemOutcome>& subproblems =
      amazon2015_result().subproblems;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ccd::contract::SubproblemSpec& spec = subproblems.front().spec;
  const ccd::contract::DesignTable table =
      ccd::contract::build_design_table(spec);
  ccd::contract::ScratchArena arena;
  const ccd::contract::ClassTableau tableau =
      ccd::contract::build_class_tableau(spec, table, arena);
  std::vector<double> weights;
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(subproblems[i].spec.weight);
  }
  std::vector<std::size_t> k_opt(n);
  std::vector<double> utility(n);
  std::vector<double> upper(n);
  for (auto _ : state) {
    ccd::contract::resolve_class(
        tableau, weights.data(), n,
        ccd::contract::ResolveOut{k_opt.data(), utility.data(), upper.data()});
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.SetLabel(ccd::contract::simd_kernel_name());
}
BENCHMARK(BM_ResolveClass)->Arg(16)->Arg(19608)->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// Solve-stage throughput, batched + cached: one k-sweep per distinct spec,
// cheap per-worker resolve. Args are {workers, threads}.
void BM_SolveStageBatched(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const std::vector<ccd::contract::SubproblemSpec> specs = fleet_specs(n);
  ccd::util::ThreadPool pool(threads);
  ccd::contract::BatchOptions options;
  options.pool = &pool;
  ccd::contract::DesignCacheStats stats;
  for (auto _ : state) {
    std::vector<ccd::contract::DesignResult> results =
        ccd::contract::design_contracts_batch(specs, options, &stats);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  // Last iteration's counters: sweeps the uncached path would have run vs
  // what the cache actually computed.
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
  state.counters["ksweeps"] = static_cast<double>(stats.misses);
  state.counters["ksweeps_uncached"] = static_cast<double>(stats.lookups);
}
BENCHMARK(BM_SolveStageBatched)
    ->Args({1000, 1})->Args({1000, 8})
    ->Args({10000, 1})->Args({10000, 8})
    ->Args({100000, 1})->Args({100000, 8})
    ->Unit(benchmark::kMillisecond);

// Uncached per-worker baseline (the pre-batch pipeline behaviour): a full
// k-sweep for every worker. 1e5 omitted — it is exactly the cost this
// engine removes.
void BM_SolveStagePerWorker(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const std::vector<ccd::contract::SubproblemSpec> specs = fleet_specs(n);
  ccd::util::ThreadPool pool(threads);
  for (auto _ : state) {
    std::vector<ccd::contract::DesignResult> results(n);
    pool.parallel_for(n, [&](std::size_t i) {
      results[i] = ccd::contract::design_contract(specs[i]);
    });
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SolveStagePerWorker)
    ->Args({1000, 1})->Args({1000, 8})
    ->Args({10000, 1})->Args({10000, 8})
    ->Unit(benchmark::kMillisecond);

// An ingest refit's redesign: every worker carries its own freshly fitted
// curve, so the batch designs 200 one-worker classes at the default m = 20
// with no cache hits, one k-sweep per worker, on one thread. The fleets
// above share 4 classes, so their sweeps are a rounding error.
std::vector<ccd::contract::SubproblemSpec> refit_specs(std::size_t n) {
  ccd::util::Rng rng(11);
  std::vector<ccd::data::EffortSample> window(64);
  std::vector<ccd::contract::SubproblemSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r2 = rng.uniform(-1.2, -0.7);
    const double r1 = rng.uniform(6.0, 9.0);
    const double r0 = rng.uniform(0.5, 2.5);
    for (ccd::data::EffortSample& s : window) {
      s.effort = rng.uniform(0.3, 3.5);
      s.feedback = (r2 * s.effort + r1) * s.effort + r0 + 0.5 * rng.normal();
    }
    ccd::contract::SubproblemSpec& spec = specs[i];
    spec.psi = ccd::effort::fit_effort_function(window).model;
    // Suspected-malicious workers get the session's omega_malicious.
    spec.incentives = {1.0, i % 5 == 0 ? 0.5 : 0.0};
    spec.weight = rng.uniform(0.2, 3.0);
  }
  return specs;
}

// An ingest refit's grouping: FleetSoA::from_specs on 200 one-worker
// classes (process CPU time).
void BM_FleetFromRefitSpecs(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<ccd::contract::SubproblemSpec> specs = refit_specs(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::contract::FleetSoA::from_specs(specs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_FleetFromRefitSpecs)->Arg(200)->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

void run_refit_batch(benchmark::State& state, ccd::util::ThreadPool& pool) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<ccd::contract::SubproblemSpec> specs = refit_specs(n);
  ccd::contract::BatchOptions options;
  options.pool = &pool;
  ccd::contract::DesignCacheStats stats;
  for (auto _ : state) {
    std::vector<ccd::contract::DesignResult> results =
        ccd::contract::design_contracts_batch(specs, options, &stats);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.counters["ksweeps"] = static_cast<double>(stats.misses);
}

void BM_IngestRefitBatch(benchmark::State& state) {
  ccd::util::ThreadPool pool(1);
  run_refit_batch(state, pool);
}
// The sweeps run on the pool's one worker thread, so time the wall clock.
BENCHMARK(BM_IngestRefitBatch)->Arg(200)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same batch on the shared pool, where ingest sessions run it. The CPU
// column is the whole process's, so it counts what the fan-out costs every
// pool thread, as ingest_stream's workers_per_cpu_s does; the time column
// is the refit's wall-clock latency.
void BM_IngestRefitBatchShared(benchmark::State& state) {
  run_refit_batch(state, ccd::util::shared_pool());
}
BENCHMARK(BM_IngestRefitBatchShared)->Arg(200)->MeasureProcessCPUTime()
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// The fan-out alone: an empty 200-index parallel_for on the shared pool,
// the shape of a refit batch's 200 classes. Process CPU time, as above:
// the caller's own clock misses the pool threads' wake-ups and handoffs.
void BM_ParallelForDispatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ccd::util::ThreadPool& pool = ccd::util::shared_pool();
  for (auto _ : state) {
    pool.parallel_for(n, [](std::size_t) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.counters["threads"] = static_cast<double>(pool.thread_count());
}
BENCHMARK(BM_ParallelForDispatch)->Arg(200)->MeasureProcessCPUTime()
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// minflt_per_call counts the process's minor page faults per pipeline call:
// 0 once the allocator reuses the previous call's memory, thousands when
// the call's buffers land on pages the allocator has just returned.
void BM_PipelineThreads(benchmark::State& state) {
  const auto& trace = medium_trace();
  ccd::core::PipelineConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  const long faults = minor_faults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::core::run_pipeline(trace, config));
  }
  state.counters["minflt_per_call"] =
      static_cast<double>(minor_faults() - faults) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PipelineThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CollusionClustering(benchmark::State& state) {
  const auto& trace = medium_trace();
  const auto backend = state.range(0) == 0
                           ? ccd::detect::ClusterBackend::kUnionFind
                           : ccd::detect::ClusterBackend::kDfsGraph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ccd::detect::cluster_ground_truth_malicious(trace, backend));
  }
  state.SetLabel(state.range(0) == 0 ? "union-find" : "dfs-graph");
}
BENCHMARK(BM_CollusionClustering)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  auto params = ccd::data::GeneratorParams::small();
  for (auto _ : state) {
    params.seed += 1;  // avoid trivially repeated streams
    benchmark::DoNotOptimize(ccd::data::generate_trace(params));
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// util::metrics overhead. Arg 0 = disarmed (set_enabled(false): every
// mutation should reduce to one relaxed load + branch), arg 1 = armed.

void BM_MetricsCounterAdd(benchmark::State& state) {
  namespace metrics = ccd::util::metrics;
  const bool was = metrics::enabled();
  metrics::set_enabled(state.range(0) != 0);
  metrics::Counter counter;
  for (auto _ : state) {
    counter.add(1);
    benchmark::ClobberMemory();
  }
  metrics::set_enabled(was);
  state.SetLabel(state.range(0) != 0 ? "armed" : "disarmed");
}
BENCHMARK(BM_MetricsCounterAdd)->Arg(0)->Arg(1);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  namespace metrics = ccd::util::metrics;
  const bool was = metrics::enabled();
  metrics::set_enabled(state.range(0) != 0);
  metrics::Histogram hist;
  double value = 1.0;
  for (auto _ : state) {
    hist.record(value);
    value = value < 1.0e6 ? value * 1.7 : 1.0;
    benchmark::ClobberMemory();
  }
  metrics::set_enabled(was);
  state.SetLabel(state.range(0) != 0 ? "armed" : "disarmed");
}
BENCHMARK(BM_MetricsHistogramRecord)->Arg(0)->Arg(1);

// End-to-end check that instrumentation does not tax the pipeline: the
// armed/disarmed pair should be indistinguishable within noise.
void BM_PipelineMetricsOverhead(benchmark::State& state) {
  namespace metrics = ccd::util::metrics;
  const auto& trace = medium_trace();
  ccd::core::PipelineConfig config;
  config.threads = 1;
  const bool was = metrics::enabled();
  metrics::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccd::core::run_pipeline(trace, config));
  }
  metrics::set_enabled(was);
  state.SetLabel(state.range(0) != 0 ? "armed" : "disarmed");
}
BENCHMARK(BM_PipelineMetricsOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Cost of the cooperative-cancellation checks sprinkled through hot loops
// (thread_pool chunks, the solve fan-out, simulation rounds). cancelled()
// is the per-index check and must stay in the low single-digit ns — the
// budget the durability design promises (<= ~2 ns/check); poll() adds a
// steady_clock read and is only called at coarse boundaries.
void BM_CancelCheck(benchmark::State& state) {
  const ccd::util::CancellationToken token;
  for (auto _ : state) {
    benchmark::DoNotOptimize(token.cancelled());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CancelCheck);

void BM_CancelPoll(benchmark::State& state) {
  ccd::util::CancellationToken token;
  if (state.range(0) != 0) {
    token.set_deadline(ccd::util::Deadline::after(3600.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(token.poll());
    benchmark::ClobberMemory();
  }
  state.SetLabel(state.range(0) != 0 ? "armed-deadline" : "no-deadline");
}
BENCHMARK(BM_CancelPoll)->Arg(0)->Arg(1);

// BENCHMARK_MAIN(), plus a default JSON sink: unless the caller supplied
// --benchmark_out, write results to BENCH_perf.json so CI always has a
// machine-readable artifact.
int run(int argc, char** argv) {
  // Peel our own force=1 flag off argv before google-benchmark sees it
  // (it would be reported as an unrecognized argument), then apply the
  // Release gate.
  bool force = false;
  bool have_out = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "force=1") == 0) {
      force = true;
      continue;
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) have_out = true;
    args.push_back(argv[i]);
  }
  if (!ccd::bench::release_gate("bench_perf", force)) {
    return ccd::bench::kNonReleaseExit;
  }
  benchmark::AddCustomContext("library_build_type",
                              ccd::bench::library_build_type());
  std::string out_flag = "--benchmark_out=BENCH_perf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!have_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_perf", run, argc, argv);
}
