// Effort-function fitting (paper §IV-B, Table III).
//
// Fits polynomial feedback-vs-effort curves per worker class (or per worker
// / per community), compares the norm of residuals across degrees 1..6, and
// produces the concave quadratic QuadraticEffort the contract machinery
// requires. If the unconstrained quadratic fit violates concavity or
// monotonicity-at-zero (possible on small noisy samples), the fit is
// projected: the offending coefficient is pinned to a feasible value and
// the remaining coefficients are re-fit by least squares.
//
// fit_effort_functions is the ingest refit's batch: fit_effort_function on
// many windows, four equal-length windows per AVX2 vector where the CPU
// has one (math::polyfit_quadratic_lanes), with bit-for-bit the scalar
// fit's results. fit_all_classes reads each class's samples straight from
// the trace as two columns and fits them in place with the one-window
// kernel (math::polyfit_quadratic_in_place), again with bit-for-bit
// fit_effort_function's results.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <span>
#include <vector>

#include "data/metrics.hpp"
#include "effort/effort_model.hpp"

namespace ccd::effort {

struct FitConfig {
  /// Degrees compared in the NoR table.
  std::size_t min_degree = 1;
  std::size_t max_degree = 6;
  /// Concavity floor used when projecting a non-concave fit: r2 is pinned
  /// to -|projection_r2_scale| * (mean feedback / mean effort^2).
  double projection_r2_scale = 0.05;
};

struct EffortFit {
  QuadraticEffort model{-1.0, 1.0, 0.0};
  /// NoR of the (possibly projected) quadratic on the sample.
  double norm_of_residuals = 0.0;
  /// True if the unconstrained fit violated r2 < 0 or r1 > 0 and was
  /// projected onto the feasible set.
  bool projected = false;
  /// True if this class had too few samples and another class's fit (or
  /// the library default) was substituted.
  bool fallback = false;
  std::size_t sample_count = 0;
};

/// Fit a concave quadratic effort function to (effort, feedback) samples.
/// Requires at least 3 samples.
EffortFit fit_effort_function(const std::vector<data::EffortSample>& samples,
                              const FitConfig& config = {});

/// One window's result in fit_effort_functions.
struct EffortFitOutcome {
  EffortFit fit;             ///< fit_effort_function's result, when no error
  std::exception_ptr error;  ///< else the ccd::Error it throws
};

/// fit_effort_function(window, config) on every window: out[i] receives
/// window i's fit bit-for-bit, or the ccd::Error (same type and message)
/// the scalar fit throws for it. On a CPU with AVX2, the windows of the
/// batch's common length — that of the first window with 3 or more
/// samples — are fit four at a time, one per lane. The scalar fit takes
/// the rest: the last fewer-than-four such windows, windows of another
/// length, lanes the kernel flags, and fits that need the projection. The
/// "effort.fit" and "math.polyfit" fault points fire for the same windows,
/// with the same keys, as under fit_effort_function. Reuses `out` and one
/// lane buffer per thread; each window is read once.
void fit_effort_functions(
    std::span<const std::deque<data::EffortSample>> windows,
    std::vector<EffortFitOutcome>& out, const FitConfig& config = {});

/// NoR for each degree in [config.min_degree, config.max_degree] — one row
/// of Table III.
std::vector<double> nor_comparison(
    const std::vector<data::EffortSample>& samples,
    const FitConfig& config = {});

/// Per-class fits over a whole trace (honest / NCM / CM), the granularity
/// the paper's evaluation uses. Classes with fewer than 3 samples (e.g. a
/// trace with no malicious workers at all) fall back to the honest fit,
/// marked with EffortFit::fallback; an all-but-empty trace falls back to
/// the library's default curve. Every other class's fit is
/// fit_effort_function(metrics.samples_of_class(cls), config) bit for bit,
/// with the same "effort.fit" and "math.polyfit" fault points: the class's
/// columns (WorkerMetrics::class_columns) are fitted in place, and only a
/// window the kernel flags, or a fit that needs the projection, is refit
/// through fit_effort_function. The columns live only while their class
/// is fitted.
struct ClassFits {
  EffortFit honest;
  EffortFit ncm;
  EffortFit cm;
};

ClassFits fit_all_classes(const data::WorkerMetrics& metrics,
                          const FitConfig& config = {});

/// Aggregate the (effort, feedback) samples of a set of workers into
/// community-level sums per round index — the meta-worker view of Eq. 3,
/// where the community's feedback is a function of the summed effort.
std::vector<data::EffortSample> community_sum_samples(
    const data::ReviewTrace& trace, const data::WorkerMetrics& metrics,
    const std::vector<data::WorkerId>& members);

}  // namespace ccd::effort
