#include "effort/fitting.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "data/generator.hpp"
#include "math/polyfit.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace ccd::effort {
namespace {

std::vector<data::EffortSample> samples_from_curve(double r2, double r1,
                                                   double r0, double noise,
                                                   std::size_t n,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<data::EffortSample> out;
  const double peak = -r1 / (2.0 * r2);
  for (std::size_t i = 0; i < n; ++i) {
    data::EffortSample s;
    s.effort = rng.uniform(0.05, 0.9 * peak);
    s.feedback = r2 * s.effort * s.effort + r1 * s.effort + r0 +
                 rng.normal(0.0, noise);
    out.push_back(s);
  }
  return out;
}

TEST(FitEffortFunctionTest, RecoversCleanQuadratic) {
  const auto samples = samples_from_curve(-1.0, 8.0, 2.0, 0.0, 200, 3);
  const EffortFit fit = fit_effort_function(samples);
  EXPECT_FALSE(fit.projected);
  EXPECT_NEAR(fit.model.r2(), -1.0, 1e-6);
  EXPECT_NEAR(fit.model.r1(), 8.0, 1e-6);
  EXPECT_NEAR(fit.model.r0(), 2.0, 1e-6);
  EXPECT_NEAR(fit.norm_of_residuals, 0.0, 1e-6);
  EXPECT_EQ(fit.sample_count, 200u);
}

// The concavity rule's keep side: a concave fit rising at zero is the
// unconstrained least-squares quadratic itself, bit for bit.
TEST(FitEffortFunctionTest, ConcaveRisingFitIsTheUnconstrainedQuadratic) {
  const auto samples = samples_from_curve(-0.8, 6.0, 1.5, 0.3, 500, 13);
  std::vector<double> xs;
  std::vector<double> ys;
  for (const data::EffortSample& s : samples) {
    xs.push_back(s.effort);
    ys.push_back(s.feedback);
  }
  const math::PolyFitResult quad = math::polyfit(xs, ys, 2);
  ASSERT_LT(quad.polynomial.coefficient(2), 0.0);
  ASSERT_GT(quad.polynomial.coefficient(1), 0.0);
  const EffortFit fit = fit_effort_function(samples);
  EXPECT_FALSE(fit.projected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fit.model.r2()),
            std::bit_cast<std::uint64_t>(quad.polynomial.coefficient(2)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fit.model.r1()),
            std::bit_cast<std::uint64_t>(quad.polynomial.coefficient(1)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fit.model.r0()),
            std::bit_cast<std::uint64_t>(quad.polynomial.coefficient(0)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fit.norm_of_residuals),
            std::bit_cast<std::uint64_t>(quad.norm_of_residuals));
  EXPECT_EQ(fit.sample_count, samples.size());
}

TEST(FitEffortFunctionTest, NoisyFitStaysClose) {
  const auto samples = samples_from_curve(-1.5, 10.0, 1.0, 0.5, 2000, 5);
  const EffortFit fit = fit_effort_function(samples);
  EXPECT_FALSE(fit.projected);
  EXPECT_NEAR(fit.model.r2(), -1.5, 0.2);
  EXPECT_NEAR(fit.model.r1(), 10.0, 0.5);
}

TEST(FitEffortFunctionTest, ProjectsConvexData) {
  // Convex (increasing returns) data: unconstrained fit has r2 > 0 and must
  // be projected onto the concave feasible set.
  util::Rng rng(7);
  std::vector<data::EffortSample> samples;
  for (int i = 0; i < 200; ++i) {
    data::EffortSample s;
    s.effort = rng.uniform(0.1, 3.0);
    s.feedback = 1.0 + 0.5 * s.effort + 2.0 * s.effort * s.effort;
    samples.push_back(s);
  }
  const EffortFit fit = fit_effort_function(samples);
  EXPECT_TRUE(fit.projected);
  EXPECT_LT(fit.model.r2(), 0.0);
  EXPECT_GT(fit.model.r1(), 0.0);
}

TEST(FitEffortFunctionTest, ProjectsDecreasingData) {
  // Decreasing feedback in effort: r1 would come out negative.
  util::Rng rng(9);
  std::vector<data::EffortSample> samples;
  for (int i = 0; i < 200; ++i) {
    data::EffortSample s;
    s.effort = rng.uniform(0.1, 3.0);
    s.feedback = 10.0 - 2.0 * s.effort + rng.normal(0.0, 0.1);
    samples.push_back(s);
  }
  const EffortFit fit = fit_effort_function(samples);
  EXPECT_TRUE(fit.projected);
  EXPECT_GT(fit.model.r1(), 0.0);
  EXPECT_LT(fit.model.r2(), 0.0);
}

TEST(FitEffortFunctionTest, RequiresThreeSamples) {
  std::vector<data::EffortSample> two(2);
  two[0].effort = 1.0;
  two[1].effort = 2.0;
  EXPECT_THROW(fit_effort_function(two), Error);
}

TEST(NorComparisonTest, ReturnsOneValuePerDegree) {
  const auto samples = samples_from_curve(-1.0, 8.0, 2.0, 0.5, 300, 11);
  const std::vector<double> nors = nor_comparison(samples);
  ASSERT_EQ(nors.size(), 6u);  // degrees 1..6
  // Quadratic and above fit a quadratic law about equally well; degree 1
  // should be visibly worse (Table III's observed pattern, inverted here
  // because our synthetic truth is strongly curved).
  for (std::size_t i = 2; i < nors.size(); ++i) {
    EXPECT_LE(nors[i], nors[1] + 1e-9);
  }
}

TEST(NorComparisonTest, PaperObservationNearEqualNoRs) {
  // With weak curvature relative to noise, all degrees produce nearly equal
  // NoR — the observation that led the paper to pick quadratic (Table III).
  util::Rng rng(13);
  std::vector<data::EffortSample> samples;
  for (int i = 0; i < 4000; ++i) {
    data::EffortSample s;
    s.effort = rng.uniform(0.05, 3.0);
    s.feedback = -0.05 * s.effort * s.effort + 6.0 * s.effort + 3.0 +
                 rng.normal(0.0, 2.0);
    samples.push_back(s);
  }
  const std::vector<double> nors = nor_comparison(samples);
  const double spread = (nors.front() - nors.back()) / nors.back();
  EXPECT_LT(spread, 0.05);
}

TEST(FitAllClassesTest, FitsThreeClassesFromTrace) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::medium());
  const data::WorkerMetrics metrics(trace);
  const ClassFits fits = fit_all_classes(metrics);
  // All fits feasible by construction.
  EXPECT_LT(fits.honest.model.r2(), 0.0);
  EXPECT_LT(fits.ncm.model.r2(), 0.0);
  EXPECT_LT(fits.cm.model.r2(), 0.0);
  EXPECT_GT(fits.honest.model.r1(), 0.0);
  // CM curve sits above the honest curve at moderate effort (their feedback
  // is inflated by intra-community upvotes) — Fig. 7's second claim.
  const double y = 1.0;
  EXPECT_GT(fits.cm.model(y), fits.honest.model(y));
}

TEST(CommunitySumSamplesTest, SumsPerRound) {
  data::ReviewTrace t;
  t.add_worker({0, data::WorkerClass::kCollusiveMalicious, 0, 1.0, false});
  t.add_worker({1, data::WorkerClass::kCollusiveMalicious, 0, 1.0, false});
  t.add_product({0, 3.0});
  // Worker 0: rounds 0, 1. Worker 1: round 0 only.
  t.add_review({0, 0, 0, 0, 5.0, 100, 4, true});
  t.add_review({1, 0, 0, 1, 5.0, 100, 6, true});
  t.add_review({2, 1, 0, 0, 5.0, 100, 10, true});
  t.build_indexes();
  const data::WorkerMetrics m(t);
  const auto sums = community_sum_samples(t, m, {0, 1});
  ASSERT_EQ(sums.size(), 2u);  // rounds 0 and 1
  EXPECT_DOUBLE_EQ(sums[0].feedback, 14.0);  // 4 + 10
  EXPECT_DOUBLE_EQ(sums[1].feedback, 6.0);
  EXPECT_GT(sums[0].effort, sums[1].effort);  // two members vs one
}

TEST(FitAllClassesTest, FallsBackWhenClassesAreEmpty) {
  // A trace with no malicious workers at all: NCM/CM fits must fall back to
  // the honest curve instead of crashing the pipeline.
  data::GeneratorParams params = data::GeneratorParams::small();
  params.n_ncm = 0;
  params.community_sizes.clear();
  const data::ReviewTrace trace = data::generate_trace(params);
  const data::WorkerMetrics metrics(trace);
  const ClassFits fits = fit_all_classes(metrics);
  EXPECT_FALSE(fits.honest.fallback);
  EXPECT_TRUE(fits.ncm.fallback);
  EXPECT_TRUE(fits.cm.fallback);
  EXPECT_DOUBLE_EQ(fits.ncm.model.r1(), fits.honest.model.r1());
  EXPECT_DOUBLE_EQ(fits.cm.model.r2(), fits.honest.model.r2());
}

TEST(FitEffortFunctionTest, ConvexDataProjectsToValidConcaveModel) {
  // Nearly linear feedback with a whisper of convexity: the raw quadratic
  // fit lands at r2 > 0, violating the r2 < 0 concavity requirement, so the
  // projection branch must pin curvature and still return a usable model.
  std::vector<data::EffortSample> samples;
  for (std::size_t i = 1; i <= 12; ++i) {
    data::EffortSample s;
    s.effort = 0.5 * static_cast<double>(i);
    s.feedback = 2.0 * s.effort + 1.0 + 0.01 * s.effort * s.effort;
    samples.push_back(s);
  }
  const EffortFit fit = fit_effort_function(samples);
  EXPECT_TRUE(fit.projected);
  EXPECT_LT(fit.model.r2(), 0.0);
  EXPECT_GT(fit.model.r1(), 0.0);
  // The projected model still tracks the data direction: increasing on the
  // sampled range.
  EXPECT_GT(fit.model(samples.back().effort), fit.model(samples.front().effort));
}

TEST(FitEffortFunctionTest, ConvexCurvatureProjectsToo) {
  // Strictly convex data (r2 > 0): same projection branch, harder input.
  std::vector<data::EffortSample> samples;
  for (std::size_t i = 1; i <= 12; ++i) {
    data::EffortSample s;
    s.effort = 0.4 * static_cast<double>(i);
    s.feedback = 0.8 * s.effort * s.effort + 0.3 * s.effort + 0.5;
    samples.push_back(s);
  }
  const EffortFit fit = fit_effort_function(samples);
  EXPECT_TRUE(fit.projected);
  EXPECT_LT(fit.model.r2(), 0.0);
  EXPECT_GT(fit.model.r1(), 0.0);
}

TEST(CommunitySumSamplesTest, RejectsEmptyCommunity) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const data::WorkerMetrics metrics(trace);
  EXPECT_THROW(community_sum_samples(trace, metrics, {}), Error);
}

// ---------------------------------------------------------------------------
// fit_all_classes against the scalar fit of each class's samples.

/// fit_all_classes as a scalar fit of every class's sample vector (the
/// reference the in-place class fits must reproduce).
ClassFits scalar_class_fits(const data::WorkerMetrics& metrics) {
  const auto fit_or = [&](data::WorkerClass cls,
                          const EffortFit& fallback_fit) {
    const auto samples = metrics.samples_of_class(cls);
    if (samples.size() < 3) {
      EffortFit fit = fallback_fit;
      fit.fallback = true;
      fit.sample_count = samples.size();
      return fit;
    }
    return fit_effort_function(samples);
  };
  EffortFit default_fit;
  default_fit.model = QuadraticEffort(-1.0, 8.0, 2.0);
  default_fit.fallback = true;
  ClassFits fits;
  fits.honest = fit_or(data::WorkerClass::kHonest, default_fit);
  fits.ncm = fit_or(data::WorkerClass::kNonCollusiveMalicious, fits.honest);
  fits.cm = fit_or(data::WorkerClass::kCollusiveMalicious, fits.honest);
  return fits;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_fit(const EffortFit& got, const EffortFit& want,
                     const char* cls) {
  SCOPED_TRACE(cls);
  EXPECT_EQ(bits(got.model.r2()), bits(want.model.r2()));
  EXPECT_EQ(bits(got.model.r1()), bits(want.model.r1()));
  EXPECT_EQ(bits(got.model.r0()), bits(want.model.r0()));
  EXPECT_EQ(bits(got.norm_of_residuals), bits(want.norm_of_residuals));
  EXPECT_EQ(got.projected, want.projected);
  EXPECT_EQ(got.fallback, want.fallback);
  EXPECT_EQ(got.sample_count, want.sample_count);
}

/// Returns the reference fits, after checking fit_all_classes against them.
ClassFits expect_class_fits_match_scalar(const data::ReviewTrace& trace) {
  const data::WorkerMetrics metrics(trace);
  const ClassFits want = scalar_class_fits(metrics);
  const ClassFits got = fit_all_classes(metrics);
  expect_same_fit(got.honest, want.honest, "honest");
  expect_same_fit(got.ncm, want.ncm, "ncm");
  expect_same_fit(got.cm, want.cm, "cm");
  return want;
}

TEST(FitAllClassesBitwiseTest, Amazon2015SeedsMatchScalarFit) {
  for (const std::uint64_t seed : {1ULL, 90417ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    data::GeneratorParams params = data::GeneratorParams::amazon2015();
    params.seed = seed;
    const ClassFits fits =
        expect_class_fits_match_scalar(data::generate_trace(params));
    EXPECT_GT(fits.honest.sample_count, 100000u);
    EXPECT_FALSE(fits.cm.fallback);
  }
}

TEST(FitAllClassesBitwiseTest, PresetsMatchScalarFit) {
  expect_class_fits_match_scalar(
      data::generate_trace(data::GeneratorParams::small()));
  expect_class_fits_match_scalar(
      data::generate_trace(data::GeneratorParams::medium()));
}

TEST(FitAllClassesBitwiseTest, EmptyClassesFallBackAsScalarFitDoes) {
  data::GeneratorParams params = data::GeneratorParams::small();
  params.n_ncm = 0;
  params.community_sizes.clear();
  const ClassFits fits =
      expect_class_fits_match_scalar(data::generate_trace(params));
  EXPECT_TRUE(fits.ncm.fallback);
  EXPECT_TRUE(fits.cm.fallback);
}

/// One honest worker whose feedback rises and bends with review length, one
/// NCM worker with `ncm_lengths` and falling feedback, and no CM worker.
/// Within a worker, effort is proportional to length.
data::ReviewTrace two_worker_trace(
    const std::vector<std::uint32_t>& ncm_lengths) {
  data::ReviewTrace t;
  t.add_worker({0, data::WorkerClass::kHonest, data::kNoCommunity, 1.0,
                false});
  t.add_worker({1, data::WorkerClass::kNonCollusiveMalicious,
                data::kNoCommunity, 1.0, false});
  t.add_product({0, 3.0});
  data::ReviewId id = 0;
  for (std::uint32_t j = 0; j < 12; ++j) {
    const auto upvotes = static_cast<std::uint32_t>(2 + 3 * j - j * j / 6);
    t.add_review({id++, 0, 0, j, 4.0, 100 * (j + 1), upvotes, true});
  }
  for (std::uint32_t j = 0; j < ncm_lengths.size(); ++j) {
    t.add_review({id++, 1, 0, j, 4.0, ncm_lengths[j], 40 - 3 * j, true});
  }
  t.build_indexes();
  return t;
}

TEST(FitAllClassesBitwiseTest, ProjectedClassMatchesScalarFit) {
  std::vector<std::uint32_t> lengths;
  for (std::uint32_t j = 0; j < 12; ++j) lengths.push_back(100 * (j + 1));
  const ClassFits fits =
      expect_class_fits_match_scalar(two_worker_trace(lengths));
  EXPECT_FALSE(fits.honest.projected);
  EXPECT_TRUE(fits.ncm.projected);
  EXPECT_TRUE(fits.cm.fallback);
}

// A class the kernel flags (its efforts take one or two values, so the
// quadratic design is rank-deficient) throws what the scalar fit throws.
TEST(FitAllClassesBitwiseTest, FlaggedClassThrowsWhatScalarFitThrows) {
  for (const std::vector<std::uint32_t>& lengths :
       {std::vector<std::uint32_t>(6, 500),
        std::vector<std::uint32_t>{300, 900, 300, 900, 300, 900}}) {
    const data::ReviewTrace trace = two_worker_trace(lengths);
    const data::WorkerMetrics metrics(trace);
    std::string want;
    try {
      scalar_class_fits(metrics);
    } catch (const MathError& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty());
    try {
      fit_all_classes(metrics);
      ADD_FAILURE() << "fit_all_classes did not throw";
    } catch (const MathError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

/// What one fault-armed run did: its fits' bits or its error, and the
/// injections fired at each site.
struct ArmedRun {
  std::vector<std::uint64_t> fits;
  std::string error;
  std::size_t effort_fit = 0;
  std::size_t polyfit = 0;

  bool operator==(const ArmedRun&) const = default;
};

template <typename Fit>
ArmedRun armed_run(const util::FaultInjectorConfig& chaos, Fit&& fit) {
  util::FaultInjector& injector = util::FaultInjector::instance();
  injector.configure(chaos);
  ArmedRun run;
  try {
    const ClassFits fits = fit();
    for (const EffortFit* f : {&fits.honest, &fits.ncm, &fits.cm}) {
      run.fits.push_back(bits(f->model.r2()));
      run.fits.push_back(bits(f->model.r1()));
      run.fits.push_back(bits(f->model.r0()));
      run.fits.push_back(bits(f->norm_of_residuals));
    }
  } catch (const MathError& e) {
    run.error = e.what();
  }
  run.effort_fit = injector.injected("effort.fit");
  run.polyfit = injector.injected("math.polyfit");
  injector.disable();
  return run;
}

// With the fit sites armed, fit_all_classes fails (or not) where the
// scalar fits do, with the same error, after the same injections per site.
TEST(FitAllClassesBitwiseTest, ArmedFaultSitesFireAsUnderScalarFit) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const data::WorkerMetrics metrics(trace);
  std::size_t failed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::FaultInjectorConfig chaos;
    chaos.enabled = true;
    chaos.seed = seed;
    chaos.site_rates["effort.fit"] = 0.2;
    chaos.site_rates["math.polyfit"] = 0.2;
    const ArmedRun want =
        armed_run(chaos, [&] { return scalar_class_fits(metrics); });
    const ArmedRun got =
        armed_run(chaos, [&] { return fit_all_classes(metrics); });
    EXPECT_TRUE(got == want) << "seed " << seed << ": error '" << got.error
                             << "' vs '" << want.error << "'";
    failed += want.error.empty() ? 0 : 1;
  }
  EXPECT_GT(failed, 5u);
  EXPECT_LT(failed, 35u);
}

}  // namespace
}  // namespace ccd::effort
