// design_full: the `ccdctl design preset=full` path. Each episode generates
// the amazon2015-sized trace and runs the pipeline once to warm up (the
// set-up), then times repeated core::run_pipeline calls. The solve runs on
// one thread: with four solve threads, allocator contention spread peak
// RSS over 72.6-74.9 MB between runs, against 69.8-70.1 MB on one.
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "contract/design_cache.hpp"
#include "core/equilibrium.hpp"
#include "core/pipeline.hpp"
#include "data/generator.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ccd;

core::PipelineConfig pipeline_config() {
  core::PipelineConfig config;
  config.threads = 1;
  return config;
}

/// Bitwise identity of a pipeline result: its two totals and a digest of
/// every worker's compensation.
struct Fingerprint {
  double utility = 0.0;
  double compensation = 0.0;
  std::uint64_t per_worker = 0;

  bool operator==(const Fingerprint& o) const {
    return std::memcmp(&utility, &o.utility, sizeof utility) == 0 &&
           std::memcmp(&compensation, &o.compensation, sizeof compensation) ==
               0 &&
           per_worker == o.per_worker;
  }
};

Fingerprint fingerprint(const core::PipelineResult& r) {
  std::vector<double> pay;
  pay.reserve(r.workers.size());
  for (const core::WorkerOutcome& w : r.workers) pay.push_back(w.compensation);
  return Fingerprint{r.total_requester_utility, r.total_compensation,
                     util::fnv1a64(pay.data(), pay.size() * sizeof(double))};
}

/// Spans for one pipeline call: the call, and inside it the stage timings
/// the pipeline reports, laid end to end in the order the stages run.
void trace_call(Tracer& tracer, std::int64_t start, std::int64_t end,
                const core::StageTimings& t) {
  const int call = tracer.add("core.run_pipeline", -1, start, end);
  const std::pair<const char*, double> stages[] = {
      {"data.sanitize", t.sanitize_s}, {"detect.detect", t.detect_s},
      {"detect.cluster", t.cluster_s}, {"effort.fit", t.fit_s},
      {"contract.solve", t.solve_s}};
  std::int64_t at = start;
  for (const auto& [name, seconds] : stages) {
    const auto ns = static_cast<std::int64_t>(seconds * 1e9);
    tracer.add(name, call, at, at + ns);
    at += ns;
  }
}

/// The output checks on a warm-up result: worker accounting reconciles,
/// nothing degraded, and the designed contracts pass the IC/IR audit.
void check_result(const core::PipelineResult& r, std::size_t workers,
                  Record& record) {
  std::size_t solved = 0;
  std::size_t excluded = 0;
  std::size_t quarantined = 0;
  for (const core::WorkerOutcome& w : r.workers) {
    if (w.excluded) ++excluded;
    if (w.quarantined) ++quarantined;
    if (!w.excluded && !w.quarantined) ++solved;
  }
  record.check("design_full.worker_accounting",
               r.workers.size() == workers &&
                   solved + excluded + quarantined == workers &&
                   excluded == r.excluded_workers &&
                   quarantined == r.health.quarantined_workers,
               std::to_string(solved) + " solved + " +
                   std::to_string(excluded) + " excluded + " +
                   std::to_string(quarantined) + " quarantined of " +
                   std::to_string(workers));
  record.check("design_full.no_degradation", !r.health.degraded(),
               std::to_string(r.health.events.size()) + " events");
  const core::FleetAudit audit = core::audit_pipeline(r);
  record.check("design_full.ic_ir_audit", audit.clean(),
               std::to_string(audit.ic_violations) + " IC and " +
                   std::to_string(audit.ir_violations) +
                   " IR violations over " + std::to_string(audit.audited) +
                   " subproblems");
}

/// Every pipeline result of the run must reproduce the first one bitwise;
/// the first one also gets the output checks.
struct Repeatability {
  std::optional<Fingerprint> reference;
  std::size_t mismatches = 0;

  void observe(const core::PipelineResult& r, std::size_t workers,
               Record& record) {
    const Fingerprint f = fingerprint(r);
    if (!reference) {
      reference = f;
      check_result(r, workers, record);
    } else if (!(f == *reference)) {
      ++mismatches;
    }
  }
};

/// Timed pipeline calls per episode: short episodes give the per-episode
/// medians the metrics are taken over, and a fresh set-up each time.
constexpr double kEpisodeSeconds = 2.0;

/// Episodes until the measurement has run `seconds`.
Measurement measure(const Options& options, double seconds, Tracer* tracer,
                    Repeatability& repeat, Record& record) {
  Measurement m;
  const core::PipelineConfig config = pipeline_config();
  const std::int64_t begin = now_ns();
  while (m.episodes.size() < kMinEpisodes ||
         seconds_between(begin, now_ns()) < seconds) {
    Episode episode;
    const std::int64_t cpu0 = cpu_ns();
    const std::int64_t t0 = now_ns();
    data::GeneratorParams params = data::GeneratorParams::amazon2015();
    params.seed = options.seed;
    const data::ReviewTrace trace = data::generate_trace(params);
    const std::int64_t t1 = now_ns();
    const core::PipelineResult warm = core::run_pipeline(trace, config);
    const std::int64_t t2 = now_ns();
    episode.setup_s = seconds_between(t0, t2);
    episode.setup_cpu_s = seconds_between(cpu0, cpu_ns());
    if (tracer != nullptr) tracer->add("data.generate", -1, t0, t1);

    const std::size_t workers = trace.workers().size();
    repeat.observe(warm, workers, record);
    record.workers_per_op = static_cast<double>(workers);
    while (episode.timed_s < kEpisodeSeconds) {
      const std::int64_t cpu_a = cpu_ns();
      const std::int64_t a = now_ns();
      const core::PipelineResult r = core::run_pipeline(trace, config);
      const std::int64_t b = now_ns();
      const std::int64_t cpu_b = cpu_ns();
      episode.timed_s += seconds_between(a, b);
      episode.timed_cpu_s += seconds_between(cpu_a, cpu_b);
      ++episode.timed_attempted;
      episode.latencies_us.push_back(static_cast<double>(b - a) * 1e-3);
      episode.cpu_us.push_back(static_cast<double>(cpu_b - cpu_a) * 1e-3);
      if (tracer != nullptr) trace_call(*tracer, a, b, r.timings);
      repeat.observe(r, workers, record);
    }
    episode.peak_rss_kb = self_peak_rss_kb();
    m.episodes.push_back(std::move(episode));
  }
  return m;
}

/// The per-layer replica: design_contracts_batch on the run's own
/// subproblem specs, on one thread with a fresh cache per call, plus the
/// pipeline's own cache counters.
void trace_layers(const Options& options, Record& record) {
  data::GeneratorParams params = data::GeneratorParams::amazon2015();
  params.seed = options.seed;
  const data::ReviewTrace trace = data::generate_trace(params);
  const core::PipelineResult r = core::run_pipeline(trace, pipeline_config());
  record.count("contract.ksweeps", static_cast<double>(r.design_cache.misses));
  record.count("contract.cache_hits", static_cast<double>(r.design_cache.hits));
  record.count("contract.cache_lookups",
               static_cast<double>(r.design_cache.lookups));

  std::vector<contract::SubproblemSpec> specs;
  specs.reserve(r.subproblems.size());
  for (const core::SubproblemOutcome& s : r.subproblems) {
    specs.push_back(s.spec);
  }
  util::ThreadPool pool(1);
  contract::BatchOptions batch;
  batch.pool = &pool;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t a = now_ns();
    const std::vector<contract::DesignResult> designs =
        contract::design_contracts_batch(specs, batch);
    record.tracer.add("contract.batch", -1, a, now_ns());
    if (designs.size() != specs.size()) {
      throw std::runtime_error("design_contracts_batch dropped specs");
    }
  }
}

}  // namespace

void run_design_full(const Options& options, Record& record) {
  Repeatability repeat;
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  record.measure = measure(options, seconds, nullptr, repeat, record);
  if (options.trace) {
    record.traced = measure(options, seconds, &record.tracer, repeat, record);
    trace_layers(options, record);
  }
  record.check("design_full.bitwise_repeatable", repeat.mismatches == 0,
               std::to_string(repeat.mismatches) +
                   " runs differ from the first warm-up run");
}

}  // namespace perfbench
