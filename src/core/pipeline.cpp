#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace ccd::core {
namespace {

/// Registry histogram for one pipeline stage's latency (microseconds).
util::metrics::Histogram* stage_histogram(const char* stage) {
  return &util::metrics::registry().histogram(std::string("ccd.pipeline.") +
                                              stage + "_us");
}

const effort::EffortFit& class_fit(const effort::ClassFits& fits,
                                   DetectedClass cls) {
  switch (cls) {
    case DetectedClass::kHonest: return fits.honest;
    case DetectedClass::kNonCollusiveMalicious: return fits.ncm;
    case DetectedClass::kCollusiveMalicious: return fits.cm;
  }
  return fits.honest;
}

/// Fail-fast sanitize: reject non-finite fields outright, naming the
/// offender. Lenient modes route through data::sanitize_trace instead.
void check_trace_finite(const data::ReviewTrace& trace) {
  for (const data::Worker& w : trace.workers()) {
    if (!std::isfinite(w.skill)) {
      DataError e("non-finite skill for worker " + std::to_string(w.id));
      e.with_stage("sanitize").with_worker(w.id);
      throw e;
    }
  }
  for (const data::Product& p : trace.products()) {
    if (!std::isfinite(p.true_quality)) {
      DataError e("non-finite quality for product " + std::to_string(p.id));
      e.with_stage("sanitize");
      throw e;
    }
  }
  for (const data::Review& r : trace.reviews()) {
    if (!std::isfinite(r.score)) {
      DataError e("non-finite score in review " + std::to_string(r.id));
      e.with_stage("sanitize").with_worker(r.worker).with_round(r.round);
      throw e;
    }
  }
}

/// The all-zero design used for quarantined subproblems: no contract, no
/// payment, no utility. Distinct from the designer's own exclusion result
/// (`excluded` stays false; WorkerOutcome::quarantined marks the cause).
contract::DesignResult quarantined_design() { return contract::DesignResult{}; }

/// Record one absorbed failure (or cancellation) in the run's health.
void record_event(HealthReport& health, PipelineStage stage,
                  StageMode action, ErrorCode code, std::string detail,
                  std::int64_t worker = -1, std::int64_t subproblem = -1) {
  health.events.push_back(
      {stage, action, code, std::move(detail), worker, subproblem});
}

}  // namespace

const char* to_string(StageMode mode) {
  switch (mode) {
    case StageMode::kFailFast: return "fail-fast";
    case StageMode::kQuarantine: return "quarantine";
    case StageMode::kFallback: return "fallback";
  }
  return "?";
}

const char* to_string(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kSanitize: return "sanitize";
    case PipelineStage::kDetect: return "detect";
    case PipelineStage::kCluster: return "cluster";
    case PipelineStage::kFit: return "fit";
    case PipelineStage::kSolve: return "solve";
  }
  return "?";
}

StageMode FaultPolicy::mode_for(PipelineStage stage) const {
  switch (stage) {
    case PipelineStage::kSanitize: return sanitize;
    case PipelineStage::kDetect: return detect;
    case PipelineStage::kCluster: return cluster;
    case PipelineStage::kFit: return fit;
    case PipelineStage::kSolve: return solve;
  }
  return StageMode::kFailFast;
}

std::string DegradationEvent::to_string() const {
  std::ostringstream os;
  os << ccd::core::to_string(stage) << '/' << ccd::core::to_string(action)
     << " [" << ccd::to_string(code) << "] " << detail;
  if (worker >= 0) os << " worker=" << worker;
  if (subproblem >= 0) os << " subproblem=" << subproblem;
  return os.str();
}

std::string HealthReport::to_string() const {
  if (!degraded() && !sanitized && !cancelled) return "health: clean";
  std::ostringstream os;
  os << "health: " << events.size() << " event(s), quarantined_workers="
     << quarantined_workers << " fallback_workers=" << fallback_workers
     << " fit_fallbacks=" << fit_fallbacks;
  if (cancelled) {
    os << "; cancelled (" << util::to_string(cancel_reason)
       << "), unsolved_subproblems=" << unsolved_subproblems;
  }
  if (sanitized) os << "; " << sanitize.to_string();
  for (const DegradationEvent& e : events) os << "\n  " << e.to_string();
  return os.str();
}

std::string StageTimings::to_string() const {
  const auto ms = [](double s) { return util::format_double(s * 1e3, 2); };
  std::ostringstream os;
  os << "timings (ms): sanitize=" << ms(sanitize_s)
     << " detect=" << ms(detect_s) << " cluster=" << ms(cluster_s)
     << " fit=" << ms(fit_s) << " decompose=" << ms(decompose_s)
     << " solve=" << ms(solve_s)
     << " total=" << ms(total_s);
  if (solve_spans.count > 0) {
    os << "; solve spans (us): n=" << solve_spans.count
       << " p50=" << util::format_double(solve_spans.p50(), 1)
       << " p95=" << util::format_double(solve_spans.p95(), 1);
  }
  return os.str();
}

std::vector<double> PipelineResult::compensations_of_class(
    data::WorkerClass cls) const {
  std::vector<double> out;
  for (const WorkerOutcome& w : workers) {
    if (w.true_class == cls) out.push_back(w.compensation);
  }
  return out;
}

PipelineResult run_pipeline(const data::ReviewTrace& trace,
                            const PipelineConfig& config) {
  config.requester.validate();
  CCD_CHECK_MSG(trace.indexes_built(), "pipeline requires trace indexes");

  PipelineResult result;
  HealthReport& health = result.health;
  const FaultPolicy& policy = config.faults;

  // A stage failure: under a fail-fast policy it escapes with the stage
  // (and the worker, when known) attached; the lenient modes record it as
  // one event and the caller degrades the stage. Called from inside the
  // catch handler that holds `e`, so `throw;` rethrows it.
  const auto absorb = [&](PipelineStage stage, Error& e,
                          std::int64_t worker = -1,
                          std::int64_t subproblem = -1) {
    const StageMode mode = policy.mode_for(stage);
    if (mode == StageMode::kFailFast) {
      e.with_stage(to_string(stage));
      if (worker >= 0) e.with_worker(worker);
      throw;
    }
    record_event(health, stage, mode, e.code(), e.message(), worker,
                 subproblem);
  };

  // Cooperative cancellation: the first poll that latches the token
  // records one degradation event naming the boundary; every later stage
  // just observes health.cancelled.
  const util::CancellationToken* cancel = config.cancel;
  const auto poll_cancel = [&](PipelineStage stage) {
    if (health.cancelled) return true;
    if (cancel == nullptr || !cancel->poll()) return false;
    health.cancelled = true;
    health.cancel_reason = cancel->reason();
    record_event(health, stage, StageMode::kQuarantine, ErrorCode::kDeadline,
                 std::string("run cancelled (") +
                     util::to_string(health.cancel_reason) + ") before the " +
                     to_string(stage) + " stage");
    return true;
  };

  // Run one stage's work. False when the run is cancelled or the stage's
  // failure was absorbed: either way the caller degrades the stage the
  // same way, so a partial result stays well-formed. (Cancellation is
  // silent even under a fail-fast policy.)
  const auto run_stage = [&](PipelineStage stage, const auto& work) {
    if (poll_cancel(stage)) return false;
    try {
      work();
      return true;
    } catch (Error& e) {
      absorb(stage, e);
      return false;
    }
  };

  // Observability: per-stage RAII spans write this run's wall clock into
  // result.timings and the process-wide ccd.pipeline.* latency histograms
  // (stopped explicitly so the figures land before `result` is returned).
  util::metrics::registry().counter("ccd.pipeline.runs").add(1);
  util::metrics::ScopedTimer total_timer(stage_histogram("total"),
                                         &result.timings.total_s);

  // ---- Sanitize stage ----------------------------------------------------
  // Fail-fast scans for the one corruption class ReviewTrace::validate()
  // historically missed at build time (non-finite fields reach here when a
  // trace is assembled in memory rather than loaded); the lenient modes
  // rebuild the trace through the sanitizer and keep going.
  util::metrics::ScopedTimer sanitize_timer(stage_histogram("sanitize"),
                                            &result.timings.sanitize_s);
  const data::ReviewTrace* active = &trace;
  std::optional<data::SanitizedTrace> sanitized_storage;
  if (poll_cancel(PipelineStage::kSanitize)) {
    // Cancelled before any work: use the trace as-is; the solve stage
    // below quarantines everything, so nothing reads unsanitized fields.
  } else if (policy.sanitize == StageMode::kFailFast) {
    check_trace_finite(trace);
  } else {
    sanitized_storage = data::sanitize_trace(trace, config.sanitize);
    health.sanitize = sanitized_storage->report;
    health.sanitized = true;
    if (!health.sanitize.clean()) {
      record_event(health, PipelineStage::kSanitize, policy.sanitize,
                   ErrorCode::kData, health.sanitize.to_string());
    }
    active = &sanitized_storage->trace;
  }
  if (config.load_report) {
    // The trace came from a lenient load: fold the load-layer counters
    // into this run's health (the sanitize-stage counters, when that
    // stage ran, describe the same rows post-load, so only the counters
    // the loader alone can know are added) and flag any partial read.
    health.sanitize.unparseable_rows += config.load_report->unparseable_rows;
    health.sanitize.aborted_files += config.load_report->aborted_files;
    health.sanitize.rows_before_abort += config.load_report->rows_before_abort;
    if (!config.load_report->clean()) {
      record_event(health, PipelineStage::kSanitize, StageMode::kFallback,
                   ErrorCode::kData,
                   "lenient load: " + config.load_report->to_string());
    }
  }
  sanitize_timer.stop();
  const data::ReviewTrace& t = *active;

  const std::size_t n = t.workers().size();
  result.workers.resize(n);

  // ---- Detection stage ---------------------------------------------------
  util::metrics::ScopedTimer detect_timer(stage_histogram("detect"),
                                          &result.timings.detect_s);
  std::optional<data::WorkerMetrics> metrics;
  std::optional<detect::ExpertPanel> experts;
  std::optional<detect::MaliciousDetector> detector;
  std::vector<data::WorkerId> malicious;
  if (!run_stage(PipelineStage::kDetect, [&] {
        // Once the panel is built, nothing below throws a ccd::Error: the
        // detector only checks what the panel and build_indexes() already
        // verified on this trace (indexes built, ids in range). So a
        // failed stage never leaves a panel without a detector, and the
        // accuracy distances, which the detector computes, fall back to 0
        // exactly when the stage fails.
        metrics.emplace(t);
        experts.emplace(t, *metrics, config.expert);
        detector.emplace(t, *experts, config.detector);
        result.detector_quality =
            detector->evaluate(t, config.malicious_threshold);
        if (!config.use_ground_truth_labels) {
          malicious = detector->flagged(config.malicious_threshold);
        }
      })) {
    // Degraded detection: treat the fleet as honest (no flags, neutral
    // probabilities). Contracts are still designed for everyone, so the
    // run stays useful as an upper bound on trust.
    malicious.clear();
    result.detector_quality = {};
  }
  if (config.use_ground_truth_labels) {
    for (const data::Worker& w : t.workers()) {
      if (w.true_class != data::WorkerClass::kHonest) malicious.push_back(w.id);
    }
  }
  detect_timer.stop();

  // ---- Clustering stage --------------------------------------------------
  util::metrics::ScopedTimer cluster_timer(stage_histogram("cluster"),
                                           &result.timings.cluster_s);
  if (!run_stage(PipelineStage::kCluster, [&] {
        result.collusion = detect::cluster_collusive_workers(t, malicious);
      })) {
    // Degraded clustering: no communities; flagged workers stay NCM.
    result.collusion = {};
    result.collusion.community_of.assign(n, -1);
    result.collusion.non_collusive = malicious;
  }
  cluster_timer.stop();

  // ---- Fitting stage -----------------------------------------------------
  // The class fits, then one fit per detected community.
  util::metrics::ScopedTimer fit_timer(stage_histogram("fit"),
                                       &result.timings.fit_s);
  if (!run_stage(PipelineStage::kFit, [&] {
        CCD_CHECK_MSG(metrics.has_value(),
                      "worker metrics unavailable (detect stage failed)");
        result.class_fits = effort::fit_all_classes(*metrics, config.fit);
      })) {
    // Degraded fitting: the library default concave model for every class.
    effort::EffortFit def;
    def.model = effort::QuadraticEffort(-1.0, 8.0, 2.0);
    def.fallback = true;
    result.class_fits.honest = def;
    result.class_fits.ncm = def;
    result.class_fits.cm = def;
    ++health.fit_fallbacks;
  }

  // Per-community fits, in community order; without worker metrics, or
  // once cancelled, every community keeps the CM class fit. A community's
  // subproblem follows every individual's, so its events carry that index.
  struct CommunityFit {
    effort::EffortFit fit;
    bool quarantined = false;
  };
  const std::size_t individuals = static_cast<std::size_t>(std::count_if(
      result.collusion.community_of.begin(),
      result.collusion.community_of.end(),
      [](std::int32_t community) { return community < 0; }));
  std::vector<CommunityFit> community_fits(
      result.collusion.communities.size(), {result.class_fits.cm});
  const bool fit_communities = metrics && !health.cancelled;
  for (std::size_t c = 0; fit_communities && c < community_fits.size(); ++c) {
    const detect::Community& community = result.collusion.communities[c];
    const std::vector<data::EffortSample> samples =
        effort::community_sum_samples(t, *metrics, community.members);
    if (samples.size() < config.min_community_fit_samples) continue;
    try {
      community_fits[c].fit = effort::fit_effort_function(samples, config.fit);
    } catch (Error& e) {
      absorb(PipelineStage::kFit, e, community.members.front(),
             static_cast<std::int64_t>(individuals + c));
      if (policy.fit == StageMode::kQuarantine) {
        community_fits[c].quarantined = true;
      } else {
        ++health.fit_fallbacks;  // keep the CM class fit
      }
    }
  }
  fit_timer.stop();

  // ---- Per-worker attributes ---------------------------------------------
  // The decompose span covers these and the subproblem construction.
  util::metrics::ScopedTimer decompose_timer(stage_histogram("decompose"),
                                             &result.timings.decompose_s);

  // NCM = flagged malicious that clustering did not absorb into a
  // community; derive it from the flagged set itself so the detector and
  // the clustering stay one source of truth.
  std::vector<bool> is_ncm(n, false);
  for (const data::WorkerId id : malicious) {
    is_ncm[id] = result.collusion.community_of[id] < 0;
  }

  for (data::WorkerId id = 0; id < n; ++id) {
    WorkerOutcome& out = result.workers[id];
    out.id = id;
    out.true_class = t.workers()[id].true_class;
    out.malicious_probability = detector ? detector->probability(id) : 0.0;
    out.accuracy_distance = detector ? detector->accuracy_distance(id) : 0.0;
    const std::int32_t community = result.collusion.community_of[id];
    if (community >= 0) {
      out.detected_class = DetectedClass::kCollusiveMalicious;
      out.partners = result.collusion.communities[community].members.size() - 1;
    } else if (is_ncm[id]) {
      out.detected_class = DetectedClass::kNonCollusiveMalicious;
      out.partners = 0;
    } else {
      out.detected_class = DetectedClass::kHonest;
      out.partners = 0;
    }
    out.weight = feedback_weight(config.requester, out.accuracy_distance,
                                 out.malicious_probability, out.partners);
  }

  // ---- Subproblem construction (BiP decomposition, §IV-B) ---------------
  const auto make_spec = [&](const effort::EffortFit& fit, double omega,
                             double weight) {
    contract::SubproblemSpec spec;
    spec.psi = fit.model;
    spec.incentives.beta = config.requester.beta;
    spec.incentives.omega = omega;
    spec.weight = weight;
    spec.mu = config.requester.mu;
    spec.intervals = config.requester.intervals;
    return spec;
  };

  // Individuals: everyone not in a detected community.
  result.subproblems.reserve(individuals + community_fits.size());
  for (data::WorkerId id = 0; id < n; ++id) {
    if (result.collusion.community_of[id] >= 0) continue;
    WorkerOutcome& out = result.workers[id];
    const double omega =
        out.detected_class == DetectedClass::kHonest
            ? 0.0
            : config.requester.omega_malicious;
    SubproblemOutcome sub;
    sub.worker = id;
    sub.spec = make_spec(class_fit(result.class_fits, out.detected_class),
                         omega, out.weight);
    result.subproblems.push_back(std::move(sub));
  }
  // Communities as meta-workers.
  for (std::size_t c = 0; c < result.collusion.communities.size(); ++c) {
    const detect::Community& community = result.collusion.communities[c];
    double weight = 0.0;
    for (const data::WorkerId id : community.members) {
      weight += result.workers[id].weight;
    }
    weight /= static_cast<double>(community.members.size());

    SubproblemOutcome sub;
    sub.worker = community.members.front();
    sub.community = static_cast<std::int32_t>(c);
    sub.spec = make_spec(community_fits[c].fit,
                         config.requester.omega_malicious, weight);
    sub.quarantined = community_fits[c].quarantined;
    result.subproblems.push_back(std::move(sub));
  }
  decompose_timer.stop();

  // ---- Strategy-specific solve (batched, cache-aware) --------------------
  // All workers of one detected class share the same weight-independent
  // spec, so the contract strategies go through design_contracts_in_place:
  // one k-sweep per distinct spec, then a cheap per-worker resolve. Every
  // StageMode makes the same call; the lenient modes give it a per-spec
  // error sink and absorb each failed subproblem in the post-pass below.
  // The fan-out reuses the process-wide shared pool unless the caller pins
  // an explicit thread count.
  util::metrics::ScopedTimer solve_timer(stage_histogram("solve"),
                                         &result.timings.solve_s);
  // This run's solve spans, one per class k-sweep (one per subproblem for
  // the fixed-payment strategy); snapshotted into result.timings and
  // rolled up into ccd.pipeline.solve_task_us.
  util::metrics::Histogram solve_spans;
  const std::size_t nsub = result.subproblems.size();
  util::ThreadPool* pool = &util::shared_pool();
  std::optional<util::ThreadPool> local_pool;
  if (config.threads != 0) {
    local_pool.emplace(config.threads);
    pool = &*local_pool;
  }
  const bool lenient = policy.solve != StageMode::kFailFast;

  const auto suspected_malicious = [&](const SubproblemOutcome& sub) {
    return sub.community >= 0 ||
           result.workers[sub.worker].detected_class != DetectedClass::kHonest;
  };
  // The weight a subproblem is priced with: the exclusion strategy gives
  // every suspect weight 0, the zero contract.
  const auto priced_weight = [&](const SubproblemOutcome& sub) {
    return config.strategy == PricingStrategy::kExcludeMalicious &&
                   suspected_malicious(sub)
               ? 0.0
               : sub.spec.weight;
  };
  const auto priced_spec = [&](const SubproblemOutcome& sub) {
    contract::SubproblemSpec spec = sub.spec;
    spec.weight = priced_weight(sub);
    return spec;
  };
  const auto fixed_design = [&](const contract::SubproblemSpec& spec) {
    const contract::FixedContractOutcome outcome =
        contract::fixed_threshold_baseline(spec, config.fixed_payment,
                                           config.fixed_threshold_effort);
    // Represent the outcome in DesignResult form for uniform reporting.
    contract::DesignResult design;
    design.response.effort = outcome.effort;
    design.response.feedback = outcome.feedback;
    design.response.compensation = outcome.compensation;
    design.response.utility = outcome.worker_utility;
    design.requester_utility = outcome.requester_utility;
    return design;
  };

  // Which subproblems the solve finished (cancellation leaves zeros behind
  // and the post-pass below quarantines them) and, in the lenient modes,
  // the error each failed one raised.
  std::vector<std::uint8_t> task_done(nsub, 0);
  std::vector<std::exception_ptr> failures(lenient ? nsub : 0);
  if (!poll_cancel(PipelineStage::kSolve)) {
    try {
      // Lenient modes run the per-subproblem fault site first; a
      // subproblem it elects is not designed.
      for (std::size_t i = 0; lenient && i < nsub; ++i) {
        if (result.subproblems[i].quarantined) continue;
        try {
          CCD_FAULT_POINT("pipeline.solve_task", i, Error);
        } catch (const Error&) {
          failures[i] = std::current_exception();
        }
      }
      const auto skipped = [&](std::size_t i) {
        return result.subproblems[i].quarantined || (lenient && failures[i]);
      };
      if (config.strategy == PricingStrategy::kFixedPayment) {
        pool->parallel_for(nsub, [&](std::size_t i) {
          if (skipped(i)) return;
          util::metrics::ScopedTimer span(&solve_spans);
          try {
            result.subproblems[i].design =
                fixed_design(result.subproblems[i].spec);
            task_done[i] = 1;
          } catch (const Error&) {
            if (!lenient) throw;
            failures[i] = std::current_exception();
          }
        }, cancel);
      } else {
        // The batch designs each subproblem where it lives: it reads
        // sub.spec with the priced weight and writes sub.design (left
        // default where it resolves nothing). Skipped subproblems
        // (fit-quarantined, or elected by the fault site) take the
        // zero-weight shortcut: no k-sweep, no fault point.
        std::vector<double> weights(nsub);
        for (std::size_t i = 0; i < nsub; ++i) {
          weights[i] = skipped(i) ? 0.0 : priced_weight(result.subproblems[i]);
        }
        contract::BatchView view = contract::BatchView::over(
            result.subproblems.data(), nsub, &SubproblemOutcome::spec,
            &SubproblemOutcome::design);
        view.weights = weights.data();
        std::vector<std::exception_ptr> design_errors;
        contract::BatchOptions batch;
        batch.pool = pool;
        batch.sweep_histogram = &solve_spans;
        batch.cancel = cancel;
        batch.resolved = &task_done;
        if (lenient) batch.errors = &design_errors;
        contract::design_contracts_in_place(view, batch, &result.design_cache);
        for (std::size_t i = 0; lenient && i < nsub; ++i) {
          if (!skipped(i)) failures[i] = design_errors[i];
        }
      }
    } catch (Error& e) {
      // Fail-fast: the first failure (the lenient modes collected theirs).
      e.with_stage("solve");
      throw;
    }
  }

  // Failure post-pass, in subproblem order: fit-quarantined subproblems
  // keep the zero design, and each failed one is absorbed with one event:
  // quarantine gives it the zero design, fallback the fixed-payment
  // baseline (quarantined after a second event if that throws too).
  for (std::size_t i = 0; i < nsub; ++i) {
    SubproblemOutcome& sub = result.subproblems[i];
    if (sub.quarantined) {
      sub.design = quarantined_design();
      continue;
    }
    if (!lenient || !failures[i]) continue;
    const auto subproblem = static_cast<std::int64_t>(i);
    try {
      std::rethrow_exception(failures[i]);
    } catch (const Error& e) {
      record_event(health, PipelineStage::kSolve, policy.solve, e.code(),
                   e.message(), sub.worker, subproblem);
    }
    if (policy.solve == StageMode::kFallback &&
        config.strategy != PricingStrategy::kFixedPayment) {
      try {
        sub.design = fixed_design(priced_spec(sub));
        sub.fallback = true;
        task_done[i] = 1;
        continue;
      } catch (const Error& e) {
        record_event(health, PipelineStage::kSolve, StageMode::kQuarantine,
                     e.code(), "fallback failed: " + e.message(), sub.worker,
                     subproblem);
      }
    }
    sub.quarantined = true;
    sub.design = quarantined_design();
  }

  // Cancellation post-pass: anything the solve stage did not finish gets
  // the quarantine treatment, so the reconciliation invariant holds and a
  // partial run is visibly partial. Runs once, whether the token latched
  // at an earlier boundary or mid-solve.
  if (health.cancelled || (cancel != nullptr && cancel->cancelled())) {
    std::size_t unsolved = 0;
    for (std::size_t i = 0; i < nsub; ++i) {
      SubproblemOutcome& sub = result.subproblems[i];
      if (task_done[i] != 0 || sub.quarantined) continue;
      sub.quarantined = true;
      sub.design = quarantined_design();
      ++unsolved;
    }
    health.unsolved_subproblems = unsolved;
    if (!health.cancelled) {
      // Latched mid-solve (between the boundary poll and the fan-out's
      // own checks): record the one summary event here.
      health.cancelled = true;
      health.cancel_reason = cancel->reason();
      record_event(health, PipelineStage::kSolve, StageMode::kQuarantine,
                   ErrorCode::kDeadline,
                   std::string("solve cancelled mid-stage (") +
                       util::to_string(health.cancel_reason) + "); " +
                       std::to_string(unsolved) +
                       " subproblem(s) quarantined unsolved");
    }
    util::metrics::registry().counter("ccd.pipeline.cancelled").add(1);
  }
  solve_timer.stop();
  result.timings.solve_spans = solve_spans.snapshot();
  util::metrics::registry()
      .histogram("ccd.pipeline.solve_task_us")
      .merge(result.timings.solve_spans);

  // Events arrive in stage order, each stage's in subproblem order, except
  // a mid-solve cancellation summary, recorded last; the stable sort puts
  // it first among the solve events, so reports read in (stage,
  // subproblem, worker) order.
  std::stable_sort(health.events.begin(), health.events.end(),
                   [](const DegradationEvent& a, const DegradationEvent& b) {
                     if (a.stage != b.stage) return a.stage < b.stage;
                     if (a.subproblem != b.subproblem) {
                       return a.subproblem < b.subproblem;
                     }
                     return a.worker < b.worker;
                   });

  // ---- Aggregation --------------------------------------------------------
  for (std::size_t i = 0; i < result.subproblems.size(); ++i) {
    const SubproblemOutcome& sub = result.subproblems[i];
    const std::span<const data::WorkerId> covered = result.workers_of(sub);
    const double share = 1.0 / static_cast<double>(covered.size());
    result.total_requester_utility += sub.design.requester_utility;
    result.total_compensation += sub.design.response.compensation;
    for (const data::WorkerId id : covered) {
      WorkerOutcome& out = result.workers[id];
      out.subproblem = i;
      out.excluded = sub.design.excluded;
      out.quarantined = sub.quarantined;
      out.fallback = sub.fallback;
      out.requester_utility = sub.design.requester_utility * share;
      out.compensation = sub.design.response.compensation * share;
      out.effort = sub.design.response.effort * share;
      out.feedback = sub.design.response.feedback * share;
      if (out.excluded) ++result.excluded_workers;
      if (out.quarantined) ++health.quarantined_workers;
      if (out.fallback) ++health.fallback_workers;
    }
  }

  // Stopped explicitly: relying on the destructor would race NRVO (the
  // write could land after `result` is copied out on non-eliding paths).
  total_timer.stop();

  CCD_LOG_DEBUG << "pipeline: utility="
                << result.total_requester_utility
                << " compensation=" << result.total_compensation
                << " excluded=" << result.excluded_workers
                << " design-cache hits=" << result.design_cache.hits
                << "/" << result.design_cache.lookups;
  CCD_LOG_DEBUG << "pipeline: " << result.timings.to_string();
  if (health.degraded()) {
    CCD_LOG_INFO << "pipeline degraded: " << health.to_string();
  }
  return result;
}

}  // namespace ccd::core
