#include "effort/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "math/polyfit.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"

namespace ccd::effort {
namespace {

void split_samples(const std::vector<data::EffortSample>& samples,
                   std::vector<double>& xs, std::vector<double>& ys) {
  xs.reserve(samples.size());
  ys.reserve(samples.size());
  for (const data::EffortSample& s : samples) {
    xs.push_back(s.effort);
    ys.push_back(s.feedback);
  }
}

double mean_of(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

/// The "effort.fit" fault point's key for a window.
std::uint64_t fit_fault_key(data::WorkerId worker, std::size_t samples) {
  return (static_cast<std::uint64_t>(worker) << 24) ^ samples;
}

/// The concavity rule: the unconstrained quadratic `quad` of `samples`
/// samples is the fit when it is concave and rising at zero (r2 < 0 and
/// r1 > 0); otherwise nothing, and the caller takes
/// fit_effort_function's projection.
std::optional<EffortFit> concave_fit(const math::PolyFitResult& quad,
                                     std::size_t samples) {
  const double r2 = quad.polynomial.coefficient(2);
  const double r1 = quad.polynomial.coefficient(1);
  if (!(r2 < 0.0 && r1 > 0.0)) return std::nullopt;
  EffortFit fit;
  fit.model = QuadraticEffort(r2, r1, quad.polynomial.coefficient(0));
  fit.norm_of_residuals = quad.norm_of_residuals;
  fit.sample_count = samples;
  return fit;
}

EffortFitOutcome scalar_outcome(const std::deque<data::EffortSample>& window,
                                const FitConfig& config) {
  EffortFitOutcome outcome;
  try {
    outcome.fit = fit_effort_function(
        std::vector<data::EffortSample>(window.begin(), window.end()), config);
  } catch (const Error&) {
    outcome.error = std::current_exception();
  }
  return outcome;
}

/// Fit four windows of lanes.samples samples, windows[group[l]] in lane l.
void fit_lane_group(std::span<const std::deque<data::EffortSample>> windows,
                    const std::size_t (&group)[math::QuadraticLanes::kLanes],
                    math::QuadraticLanes& lanes,
                    std::vector<EffortFitOutcome>& out,
                    const FitConfig& config) {
  constexpr std::size_t kLanes = math::QuadraticLanes::kLanes;
  const std::size_t m = lanes.samples;
  unsigned live = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::deque<data::EffortSample>& window = windows[group[l]];
    double* x = lanes.x.data() + l;
    double* y = lanes.y.data() + l;
    for (const data::EffortSample& s : window) {
      *x = s.effort;
      *y = s.feedback;
      x += kLanes;
      y += kLanes;
    }
    try {
      CCD_FAULT_POINT("effort.fit", fit_fault_key(window.front().worker, m),
                      MathError);
      live |= 1u << l;
    } catch (const MathError&) {
      out[group[l]].error = std::current_exception();
    }
  }

  math::polyfit_quadratic_lanes(lanes, live);
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (!(live >> l & 1u)) continue;
    EffortFitOutcome& outcome = out[group[l]];
    if (lanes.failed >> l & 1u) {
      outcome.error = lanes.error[l];
      continue;
    }
    if (lanes.fitted >> l & 1u) {
      if (std::optional<EffortFit> fit = concave_fit(lanes.fit[l], m)) {
        outcome.fit = *fit;
        continue;
      }
    }
    // A flagged lane, or a fit that needs the projection. Its fault points
    // did not fire above, so they do not fire here either.
    outcome = scalar_outcome(windows[group[l]], config);
  }
}

}  // namespace

EffortFit fit_effort_function(const std::vector<data::EffortSample>& samples,
                              const FitConfig& config) {
  CCD_CHECK_MSG(samples.size() >= 3,
                "effort fitting needs at least 3 samples, got "
                    << samples.size());
  CCD_FAULT_POINT("effort.fit",
                  fit_fault_key(samples.front().worker, samples.size()),
                  MathError);
  std::vector<double> xs, ys;
  split_samples(samples, xs, ys);

  const math::PolyFitResult quad = math::polyfit(xs, ys, 2);
  if (std::optional<EffortFit> fit = concave_fit(quad, samples.size())) {
    return *fit;
  }

  // Projection onto the feasible set {r2 < 0, r1 > 0}: pin r2 to a gentle
  // data-scaled curvature, then least-squares the linear part on the
  // residual, finally pin r1 if it still comes out non-positive.
  double r2 = quad.polynomial.coefficient(2);
  const double mx = std::max(1e-9, mean_of(xs));
  const double my = std::max(1e-9, mean_of(ys));
  if (!(r2 < 0.0)) {
    r2 = -std::abs(config.projection_r2_scale) * my / (mx * mx);
  }
  std::vector<double> residual(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    residual[i] = ys[i] - r2 * xs[i] * xs[i];
  }
  const math::PolyFitResult lin = math::polyfit(xs, residual, 1);
  double r0 = lin.polynomial.coefficient(0);
  double r1 = lin.polynomial.coefficient(1);
  if (!(r1 > 0.0)) {
    r1 = 0.1 * my / mx;
    double intercept = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
      intercept += ys[i] - r2 * xs[i] * xs[i] - r1 * xs[i];
    }
    r0 = intercept / static_cast<double>(ys.size());
  }
  EffortFit fit;
  fit.model = QuadraticEffort(r2, r1, r0);
  fit.norm_of_residuals =
      math::norm_of_residuals(fit.model.as_polynomial(), xs, ys);
  fit.sample_count = samples.size();
  fit.projected = true;
  CCD_LOG_DEBUG << "effort fit projected onto feasible set: "
                << fit.model.to_string();
  return fit;
}

void fit_effort_functions(
    std::span<const std::deque<data::EffortSample>> windows,
    std::vector<EffortFitOutcome>& out, const FitConfig& config) {
  constexpr std::size_t kLanes = math::QuadraticLanes::kLanes;
  out.assign(windows.size(), EffortFitOutcome{});
  std::size_t length = 0;  // of the windows that take the lanes; 0 = none
  if (math::quadratic_lanes_available()) {
    for (const std::deque<data::EffortSample>& window : windows) {
      if (window.size() >= 3) {
        length = window.size();
        break;
      }
    }
  }
  thread_local math::QuadraticLanes lanes;
  if (length != 0) lanes.resize(length);
  std::size_t group[kLanes];
  std::size_t filled = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (length == 0 || windows[i].size() != length) {
      out[i] = scalar_outcome(windows[i], config);
      continue;
    }
    group[filled++] = i;
    if (filled == kLanes) {
      fit_lane_group(windows, group, lanes, out, config);
      filled = 0;
    }
  }
  for (std::size_t j = 0; j < filled; ++j) {
    out[group[j]] = scalar_outcome(windows[group[j]], config);
  }
}

std::vector<double> nor_comparison(
    const std::vector<data::EffortSample>& samples, const FitConfig& config) {
  CCD_CHECK_MSG(samples.size() > config.max_degree,
                "NoR comparison needs more samples than the max degree");
  std::vector<double> xs, ys;
  split_samples(samples, xs, ys);
  return math::nor_by_degree(xs, ys, config.min_degree, config.max_degree);
}

ClassFits fit_all_classes(const data::WorkerMetrics& metrics,
                          const FitConfig& config) {
  const auto fit_or = [&](data::WorkerClass cls,
                          const EffortFit& fallback_fit) {
    const std::size_t m = metrics.class_sample_count(cls);
    if (m < 3) {
      EffortFit fit = fallback_fit;
      fit.fallback = true;
      fit.sample_count = m;
      return fit;
    }
    // fit_effort_function on the class's samples, fitted in place: its
    // effort and feedback columns and the kernel's scratch share one
    // uninitialized block, which the fit overwrites.
    const auto block = std::make_unique_for_overwrite<double[]>(3 * m);
    const std::span<double> effort(block.get(), m);
    const std::span<double> feedback(block.get() + m, m);
    const data::WorkerId first = metrics.class_columns(cls, effort, feedback);
    CCD_FAULT_POINT("effort.fit", fit_fault_key(first, m), MathError);
    if (const std::optional<math::PolyFitResult> quad =
            math::polyfit_quadratic_in_place(
                effort, feedback, std::span<double>(block.get() + 2 * m, m))) {
      if (std::optional<EffortFit> fit = concave_fit(*quad, m)) return *fit;
    }
    // A flagged window, or a fit that needs the projection. Its fault
    // points did not fire above, so they do not fire here either.
    return fit_effort_function(metrics.samples_of_class(cls), config);
  };

  // The library default, should even the honest class be (nearly) empty.
  EffortFit default_fit;
  default_fit.model = QuadraticEffort(-1.0, 8.0, 2.0);
  default_fit.fallback = true;

  ClassFits fits;
  fits.honest = fit_or(data::WorkerClass::kHonest, default_fit);
  fits.ncm = fit_or(data::WorkerClass::kNonCollusiveMalicious, fits.honest);
  fits.cm = fit_or(data::WorkerClass::kCollusiveMalicious, fits.honest);
  return fits;
}

std::vector<data::EffortSample> community_sum_samples(
    const data::ReviewTrace& trace, const data::WorkerMetrics& metrics,
    const std::vector<data::WorkerId>& members) {
  CCD_CHECK_MSG(!members.empty(), "community must have members");
  // Sum member effort and feedback per round index (the meta-worker of
  // Eq. 3: community feedback as a function of summed effort).
  std::map<std::uint32_t, data::EffortSample> by_round;
  for (const data::WorkerId wid : members) {
    for (const data::ReviewId rid : trace.reviews_of_worker(wid)) {
      const data::Review& r = trace.review(rid);
      data::EffortSample& s = by_round[r.round];
      s.worker = members.front();
      s.review = rid;
      s.effort += metrics.effort_level(rid);
      s.feedback += metrics.feedback(rid);
    }
  }
  std::vector<data::EffortSample> out;
  out.reserve(by_round.size());
  for (const auto& [round, sample] : by_round) out.push_back(sample);
  return out;
}

}  // namespace ccd::effort
