// End-to-end contract-design pipeline (the paper's Fig. 4 strategy
// framework):
//
//   trace -> sanitize -> expert panel -> maliciousness estimates ->
//   collusion clustering -> effort-function fitting -> BiP decomposition ->
//   per-subproblem contract design (in parallel) -> fleet outcome.
//
// The pipeline also runs the exclusion baseline of Fig. 8(c) (drop every
// suspected malicious worker) and a fleet-wide fixed-payment baseline, so
// experiments can compare strategies on identical inputs.
//
// Fault tolerance: every stage runs inside a recovery boundary governed by
// a per-stage StageMode in PipelineConfig::faults.
//
//  * kFailFast   — any error aborts the run (the historical behavior and
//                  the default); the thrown ccd::Error is annotated with
//                  the stage (and worker, where known) before it escapes.
//  * kQuarantine — the offending record / worker / subproblem is dropped
//                  with a zero contract (the §V "eliminated worker"
//                  treatment) and the run continues.
//  * kFallback   — a cheaper substitute is used instead: the sanitizer
//                  repairs the trace, a failed detector treats everyone as
//                  honest, a failed community fit reuses the CM class fit,
//                  and a failed contract design falls back to the
//                  fixed-payment baseline. If the substitute also fails,
//                  the unit is quarantined.
//
// Everything absorbed this way is recorded in PipelineResult::health —
// counters reconcile exactly: every worker ends up solved, excluded, or
// quarantined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "contract/baselines.hpp"
#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "core/requester.hpp"
#include "data/metrics.hpp"
#include "data/sanitize.hpp"
#include "data/trace.hpp"
#include "detect/collusion.hpp"
#include "detect/expert.hpp"
#include "detect/malicious.hpp"
#include "effort/fitting.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace ccd::core {

enum class PricingStrategy {
  kDynamicContract,   ///< the paper's method
  kExcludeMalicious,  ///< Fig. 8(c) baseline: drop all suspected malicious
  kFixedPayment,      ///< flat per-task payment with a quality threshold
};

/// Degradation mode for one pipeline stage.
enum class StageMode {
  kFailFast,    ///< propagate the error (historical behavior; default)
  kQuarantine,  ///< drop the offending unit with a zero contract
  kFallback,    ///< substitute a degraded result; quarantine if that fails
};

const char* to_string(StageMode mode);

/// Stages with a recovery boundary (in execution order).
enum class PipelineStage { kSanitize, kDetect, kCluster, kFit, kSolve };

const char* to_string(PipelineStage stage);

/// Per-stage degradation policy.
struct FaultPolicy {
  StageMode sanitize = StageMode::kFailFast;
  StageMode detect = StageMode::kFailFast;
  StageMode cluster = StageMode::kFailFast;
  StageMode fit = StageMode::kFailFast;
  StageMode solve = StageMode::kFailFast;

  StageMode mode_for(PipelineStage stage) const;

  /// All stages kFailFast (the default-constructed policy, spelled out).
  static FaultPolicy fail_fast() { return {}; }
  /// All stages kQuarantine.
  static FaultPolicy quarantine() { return uniform(StageMode::kQuarantine); }
  /// All stages kFallback.
  static FaultPolicy fallback() { return uniform(StageMode::kFallback); }
  static FaultPolicy uniform(StageMode mode) {
    FaultPolicy p;
    p.sanitize = p.detect = p.cluster = p.fit = p.solve = mode;
    return p;
  }
};

/// One absorbed failure: which stage, what the boundary did, and the error
/// it swallowed.
struct DegradationEvent {
  PipelineStage stage = PipelineStage::kSanitize;
  StageMode action = StageMode::kQuarantine;  ///< what the boundary did
  ErrorCode code = ErrorCode::kGeneric;
  std::string detail;             ///< the swallowed error's message
  std::int64_t worker = -1;       ///< offending worker id, when known
  std::int64_t subproblem = -1;   ///< offending subproblem index, when known

  std::string to_string() const;
};

/// Everything the recovery boundaries absorbed during a run. Counters
/// reconcile exactly with PipelineResult: quarantined_workers workers carry
/// WorkerOutcome::quarantined, fallback_workers carry ::fallback, and
/// quarantined + excluded + solved == total workers.
struct HealthReport {
  /// Sanitizer counters (meaningful when `sanitized` is true).
  data::SanitizeReport sanitize;
  bool sanitized = false;  ///< the sanitize stage rebuilt the trace

  std::vector<DegradationEvent> events;
  std::size_t quarantined_workers = 0;  ///< zero contract due to a failure
  std::size_t fallback_workers = 0;     ///< priced by the fallback baseline
  std::size_t fit_fallbacks = 0;        ///< effort fits replaced by a default

  /// Cancellation / deadline accounting. A cancelled run is still
  /// well-formed: skipped stages degrade exactly like their catch paths,
  /// unsolved subproblems are quarantined, and the reconciliation
  /// invariant (quarantined + excluded + solved == total) holds.
  bool cancelled = false;
  util::CancelReason cancel_reason = util::CancelReason::kNone;
  std::size_t unsolved_subproblems = 0;  ///< solve work skipped by cancellation

  /// True when any boundary absorbed a failure.
  bool degraded() const { return !events.empty(); }

  std::string to_string() const;
};

struct PipelineConfig {
  RequesterConfig requester{};
  detect::ExpertConfig expert{};
  detect::MaliciousDetectorConfig detector{};
  effort::FitConfig fit{};
  PricingStrategy strategy = PricingStrategy::kDynamicContract;
  /// Detector probability above which a worker is treated as malicious.
  double malicious_threshold = 0.5;
  /// Use ground-truth labels instead of the detector (upper-bound analysis).
  bool use_ground_truth_labels = false;
  /// Minimum per-round samples before a community gets its own effort fit
  /// (falls back to the CM class fit otherwise).
  std::size_t min_community_fit_samples = 10;
  /// Fixed-payment baseline knobs (used when strategy == kFixedPayment, and
  /// by the solve stage's kFallback boundary).
  double fixed_payment = 1.0;
  double fixed_threshold_effort = 1.0;
  /// Worker threads for the subproblem fan-out. 0 reuses the process-wide
  /// util::shared_pool() (hardware concurrency); a positive value runs the
  /// solve stage on a dedicated pool of that size. Results are identical
  /// either way.
  std::size_t threads = 0;
  /// Per-stage degradation policy (all kFailFast by default).
  FaultPolicy faults{};
  /// Sanitizer knobs for the sanitize stage's lenient modes.
  data::SanitizeConfig sanitize{};
  /// Cooperative cancellation / deadline for the whole run (null runs to
  /// completion). Polled at stage boundaries and inside the solve fan-out;
  /// a cancelled run returns a well-formed partial result with the
  /// cancellation recorded in HealthReport.
  const util::CancellationToken* cancel = nullptr;
  /// The loader's sanitize report, when the trace came from a lenient
  /// load (load_trace_sanitized). Its load-layer counters (unparseable
  /// rows, mid-file aborts) are folded into HealthReport::sanitize and a
  /// degradation event records any partial read, so incomplete input
  /// never looks like a complete run.
  std::optional<data::SanitizeReport> load_report;
};

/// How the requester classified a worker (from detector + clustering; may
/// disagree with ground truth).
enum class DetectedClass { kHonest, kNonCollusiveMalicious, kCollusiveMalicious };

struct WorkerOutcome {
  data::WorkerId id = 0;
  data::WorkerClass true_class = data::WorkerClass::kHonest;
  DetectedClass detected_class = DetectedClass::kHonest;
  double malicious_probability = 0.0;
  double accuracy_distance = 0.0;
  std::size_t partners = 0;  ///< A_i (detected community size - 1)
  double weight = 0.0;       ///< w_i (Eq. 5)
  bool excluded = false;
  /// Zero contract because a stage failed on this worker's subproblem
  /// (kQuarantine), not because the designer chose exclusion.
  bool quarantined = false;
  /// Priced by the fixed-payment fallback after the designer failed
  /// (kFallback).
  bool fallback = false;
  /// Per-worker requester utility and compensation (community members carry
  /// an equal share of the community totals).
  double requester_utility = 0.0;
  double compensation = 0.0;
  double effort = 0.0;
  double feedback = 0.0;
  /// Index into PipelineResult::subproblems for this worker's contract.
  std::size_t subproblem = 0;
};

struct SubproblemOutcome {
  /// The individual's worker id; for a community, its first member.
  data::WorkerId worker = 0;
  /// Index into PipelineResult::collusion.communities, or -1 for an
  /// individual. PipelineResult::workers_of lists the workers covered.
  std::int32_t community = -1;
  contract::SubproblemSpec spec;
  contract::DesignResult design;
  bool quarantined = false;  ///< zero contract due to an absorbed failure
  bool fallback = false;     ///< design is the fixed-payment fallback
};

/// Wall-clock timings of one run. Stage seconds are always measured (two
/// clock reads per stage, independent of the runtime enable flag); the
/// solve-span histogram obeys the enable flag. Every figure is also
/// rolled up into the process-wide `ccd.pipeline.*` registry metrics, so
/// p50/p95 across runs are exportable (util/metrics.hpp). Timing fields
/// never feed back into results: two runs on the same trace and config
/// are bitwise-identical in every other field regardless of timings
/// (tested in tests/integration/determinism_test.cpp).
struct StageTimings {
  double sanitize_s = 0.0;
  double detect_s = 0.0;
  double cluster_s = 0.0;
  double fit_s = 0.0;        ///< class fits + per-community fits
  double decompose_s = 0.0;  ///< per-worker attributes + subproblem specs
  double solve_s = 0.0;      ///< strategy solve over all subproblems
  double total_s = 0.0;      ///< whole run_pipeline call
  /// Solve spans in microseconds, one per class k-sweep (a table lookup
  /// on a cache hit) under every StageMode, since fail-fast and lenient
  /// runs share one batch; the fixed-payment strategy, which sweeps
  /// nothing, records one per subproblem.
  util::metrics::HistogramSnapshot solve_spans;

  std::string to_string() const;
};

struct PipelineResult {
  std::vector<WorkerOutcome> workers;        ///< indexed by worker id
  std::vector<SubproblemOutcome> subproblems;
  detect::CollusionResult collusion;
  effort::ClassFits class_fits;
  detect::MaliciousDetector::Quality detector_quality;
  /// Solve-stage cache counters: one k-sweep per distinct subproblem spec,
  /// hits for every worker resolved from a shared table (empty for the
  /// fixed-payment strategy, which designs no contracts).
  contract::DesignCacheStats design_cache;
  /// What the recovery boundaries absorbed (empty under a clean run).
  HealthReport health;
  /// Per-stage wall-clock timings of this run (see StageTimings).
  StageTimings timings;
  double total_requester_utility = 0.0;
  double total_compensation = 0.0;
  std::size_t excluded_workers = 0;

  /// Compensations of workers whose ground-truth class is `cls`.
  std::vector<double> compensations_of_class(data::WorkerClass cls) const;

  /// Workers covered by `sub`, one of this result's subproblems: the
  /// individual's id, or every member of its community. A view into `sub`
  /// or into `collusion`; nothing is stored, so copies and moves of the
  /// result answer for their own subproblems.
  std::span<const data::WorkerId> workers_of(
      const SubproblemOutcome& sub) const {
    if (sub.community < 0) return {&sub.worker, 1};
    return collusion.communities[static_cast<std::size_t>(sub.community)]
        .members;
  }
};

/// Run the full pipeline over a trace.
PipelineResult run_pipeline(const data::ReviewTrace& trace,
                            const PipelineConfig& config);

}  // namespace ccd::core
