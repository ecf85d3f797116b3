// The batched effort fit (effort::fit_effort_functions) and its AVX2 lane
// kernel (math::polyfit_quadratic_lanes), against the scalar code they
// must reproduce: fit_effort_function on every window, polyfit on every
// lane, and, for the kernel's raw output, solve_least_squares_columns on
// polyfit's own design. Every coefficient and residual is compared by bit
// pattern, and every error by type and message. This file is compiled
// with -ffp-contract=off (tests/CMakeLists.txt), as ccd_math is, so the
// reference rounds the same way on FMA targets.
#include "effort/fitting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "math/linalg.hpp"
#include "math/polyfit.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace ccd::effort {
namespace {

using Window = std::deque<data::EffortSample>;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The shapes of feedback-vs-effort the refit meets: `t` is the effort in
/// units of the window's scale.
enum class Law {
  kConcave,     // rising and concave: the unprojected fit
  kConvex,      // r2 > 0: the projection path
  kDecreasing,  // r1 < 0: the projection path
  kConstant,    // every effort equal: a rank-deficient design
  kSignedZero,  // efforts mix -0.0 and 0.0 into a concave law
  kZeroFeedback,  // every feedback -0.0: zero projections keep their sign
};

constexpr Law kLaws[] = {Law::kConcave,  Law::kConvex,     Law::kDecreasing,
                         Law::kConstant, Law::kSignedZero, Law::kZeroFeedback};

Window make_window(data::WorkerId worker, std::size_t m, Law law, double scale,
                   util::Rng& rng) {
  Window window;
  for (std::size_t r = 0; r < m; ++r) {
    double t = rng.uniform(0.3, 3.5);
    if (law == Law::kConstant) t = 1.75;
    if (law == Law::kSignedZero && r % 3 == 0) t = r % 2 == 0 ? -0.0 : 0.0;
    const double noise = 0.4 * rng.normal();
    double feedback = 0.0;
    switch (law) {
      case Law::kConcave:
      case Law::kConstant:
      case Law::kSignedZero:
        feedback = -0.9 * t * t + 7.0 * t + 1.5 + noise;
        break;
      case Law::kConvex:
        feedback = 0.8 * t * t + 0.5 + noise;
        break;
      case Law::kDecreasing:
        feedback = 12.0 - 2.5 * t + noise;
        break;
      case Law::kZeroFeedback:
        feedback = -0.0;
        break;
    }
    data::EffortSample s;
    s.worker = worker;
    s.review = static_cast<data::ReviewId>(r);
    s.effort = t * scale;
    s.feedback = feedback * scale;
    window.push_back(s);
  }
  return window;
}

/// What fit_effort_function returns or throws for a window.
struct Reference {
  EffortFit fit;
  bool threw = false;
  std::string error_type;
  std::string message;
};

Reference scalar_fit(const Window& window, const FitConfig& config = {}) {
  Reference ref;
  try {
    ref.fit = fit_effort_function(
        std::vector<data::EffortSample>(window.begin(), window.end()), config);
  } catch (const Error& e) {
    ref.threw = true;
    ref.error_type = typeid(e).name();
    ref.message = e.what();
  }
  return ref;
}

void expect_matches(const EffortFitOutcome& outcome, const Reference& ref,
                    const std::string& where) {
  SCOPED_TRACE(where);
  if (ref.threw) {
    ASSERT_TRUE(outcome.error) << "scalar fit threw: " << ref.message;
    try {
      std::rethrow_exception(outcome.error);
    } catch (const Error& e) {
      EXPECT_EQ(typeid(e).name(), ref.error_type);
      EXPECT_EQ(std::string(e.what()), ref.message);
    }
    return;
  }
  ASSERT_FALSE(outcome.error) << "scalar fit did not throw";
  const EffortFit& got = outcome.fit;
  EXPECT_EQ(bits(got.model.r2()), bits(ref.fit.model.r2()));
  EXPECT_EQ(bits(got.model.r1()), bits(ref.fit.model.r1()));
  EXPECT_EQ(bits(got.model.r0()), bits(ref.fit.model.r0()));
  EXPECT_EQ(bits(got.norm_of_residuals), bits(ref.fit.norm_of_residuals));
  EXPECT_EQ(got.projected, ref.fit.projected);
  EXPECT_EQ(got.fallback, ref.fit.fallback);
  EXPECT_EQ(got.sample_count, ref.fit.sample_count);
}

void expect_batch_matches_scalar(const std::vector<Window>& windows,
                                 const FitConfig& config = {}) {
  std::vector<EffortFitOutcome> outcomes;
  fit_effort_functions(windows, outcomes, config);
  ASSERT_EQ(outcomes.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    expect_matches(outcomes[i], scalar_fit(windows[i], config),
                   "window " + std::to_string(i) + " of " +
                       std::to_string(windows[i].size()) + " samples");
  }
}

// Every law at efforts scaled 1e-6..1e6, in one batch per window length,
// 37 windows each (not a multiple of 4), so irregular lanes, projection
// lanes and unprojected lanes share groups, and the last window runs
// through the scalar fit.
TEST(FitLanesTest, MatchesScalarFitOnEveryWindow) {
  util::Rng rng(17);
  for (const std::size_t m : {3, 4, 5, 7, 256, 1000}) {
    std::vector<Window> windows;
    for (std::size_t i = 0; i < 37; ++i) {
      const Law law = kLaws[i % std::size(kLaws)];
      const double scale = std::pow(10.0, static_cast<double>(i % 13) - 6.0);
      windows.push_back(
          make_window(static_cast<data::WorkerId>(i), m, law, scale, rng));
    }
    SCOPED_TRACE("m = " + std::to_string(m));
    expect_batch_matches_scalar(windows);
  }
}

TEST(FitLanesTest, ProjectionUsesTheCallersConfig) {
  util::Rng rng(5);
  std::vector<Window> windows;
  for (std::size_t i = 0; i < 8; ++i) {
    windows.push_back(make_window(static_cast<data::WorkerId>(i), 64,
                                  Law::kConvex, 1.0, rng));
  }
  FitConfig config;
  config.projection_r2_scale = 0.2;
  expect_batch_matches_scalar(windows, config);
}

// Windows of unequal length: the lanes take the first length with 3 or
// more samples, the rest (including windows too short to fit) go scalar.
TEST(FitLanesTest, UnequalAndShortWindowsMatchTheScalarFit) {
  util::Rng rng(23);
  const std::size_t lengths[] = {2, 256, 100, 256, 0, 256, 3, 256, 256, 1};
  std::vector<Window> windows;
  for (std::size_t i = 0; i < 41; ++i) {
    const std::size_t m = lengths[i % std::size(lengths)];
    windows.push_back(make_window(static_cast<data::WorkerId>(i), m,
                                  kLaws[i % 3], 1.0, rng));
  }
  expect_batch_matches_scalar(windows);
}

// With the injector armed, the batch (lane path included) faults the same
// windows with the same errors, and each site counts the same injections,
// as the scalar fit of every window.
TEST(FitLanesTest, FaultInjectorFiresForTheSameWindows) {
  util::Rng rng(31);
  std::vector<Window> windows;
  for (std::size_t i = 0; i < 203; ++i) {
    windows.push_back(make_window(static_cast<data::WorkerId>(i), 256,
                                  kLaws[i % 3], 1.0, rng));
  }
  util::FaultInjectorConfig chaos;
  chaos.enabled = true;
  chaos.seed = 11;
  chaos.site_rates["effort.fit"] = 0.2;
  chaos.site_rates["math.polyfit"] = 0.25;
  util::FaultInjector& injector = util::FaultInjector::instance();

  injector.configure(chaos);
  std::vector<EffortFitOutcome> outcomes;
  fit_effort_functions(windows, outcomes);
  const std::size_t batch_fit = injector.injected("effort.fit");
  const std::size_t batch_polyfit = injector.injected("math.polyfit");

  injector.configure(chaos);
  std::vector<Reference> refs;
  for (const Window& window : windows) refs.push_back(scalar_fit(window));
  const std::size_t scalar_fit_count = injector.injected("effort.fit");
  const std::size_t scalar_polyfit_count = injector.injected("math.polyfit");
  injector.disable();

  EXPECT_GT(scalar_fit_count, 0u);
  EXPECT_GT(scalar_polyfit_count, 0u);
  EXPECT_EQ(batch_fit, scalar_fit_count);
  EXPECT_EQ(batch_polyfit, scalar_polyfit_count);
  std::size_t faulted = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    expect_matches(outcomes[i], refs[i], "window " + std::to_string(i));
    faulted += refs[i].threw ? 1 : 0;
  }
  EXPECT_GT(faulted, 0u);
  EXPECT_LT(faulted, windows.size());
}

// ---------------------------------------------------------------------------
// The math layer directly.

/// Four windows laid out in lanes.
void fill_lanes(math::QuadraticLanes& lanes, const Window (&windows)[4]) {
  lanes.resize(windows[0].size());
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t r = 0; r < windows[l].size(); ++r) {
      lanes.x[4 * r + l] = windows[l][r].effort;
      lanes.y[4 * r + l] = windows[l][r].feedback;
    }
  }
}

void split(const Window& window, std::vector<double>& xs,
           std::vector<double>& ys) {
  xs.clear();
  ys.clear();
  for (const data::EffortSample& s : window) {
    xs.push_back(s.effort);
    ys.push_back(s.feedback);
  }
}

// Each lane polyfit fits is polyfit's result in every stored coefficient
// and the NoR; regular windows are never flagged.
TEST(QuadraticLanesTest, FittedLanesArePolyfitsResult) {
  if (!math::quadratic_lanes_available()) {
    GTEST_SKIP() << "this CPU has no AVX2; the scalar fit serves every window";
  }
  util::Rng rng(3);
  math::QuadraticLanes lanes;
  std::vector<double> xs, ys;
  for (const std::size_t m : {3, 4, 9, 256, 1000}) {
    for (std::size_t trial = 0; trial < 25; ++trial) {
      Window windows[4];
      bool regular = true;
      for (std::size_t l = 0; l < 4; ++l) {
        const Law law = kLaws[(trial + l) % std::size(kLaws)];
        regular = regular && law != Law::kConstant;
        const double scale =
            std::pow(10.0, static_cast<double>((trial * 4 + l) % 13) - 6.0);
        windows[l] = make_window(static_cast<data::WorkerId>(l), m, law,
                                 scale, rng);
      }
      fill_lanes(lanes, windows);
      math::polyfit_quadratic_lanes(lanes, 0xF);
      EXPECT_EQ(lanes.failed, 0u);
      if (regular) {
        EXPECT_EQ(lanes.fitted, 0xFu) << "m = " << m;
      }
      for (std::size_t l = 0; l < 4; ++l) {
        if (!(lanes.fitted >> l & 1u)) continue;
        split(windows[l], xs, ys);
        const math::PolyFitResult want = math::polyfit(xs, ys, 2);
        const std::vector<double>& got_c =
            lanes.fit[l].polynomial.coefficients();
        const std::vector<double>& want_c = want.polynomial.coefficients();
        ASSERT_EQ(got_c.size(), want_c.size());
        for (std::size_t k = 0; k < want_c.size(); ++k) {
          EXPECT_EQ(bits(got_c[k]), bits(want_c[k]))
              << "m = " << m << " lane " << l << " c" << k;
        }
        EXPECT_EQ(bits(lanes.fit[l].norm_of_residuals),
                  bits(want.norm_of_residuals));
      }
    }
  }
}

#ifdef CCD_POLYFIT_HAVE_AVX2

/// polyfit's centering and design for one window, solved by the scalar
/// kernel: the raw values the lane kernel must reproduce.
struct RawReference {
  double shift = 0.0;
  double scale = 0.0;
  bool threw = false;
  math::LeastSquaresResult ls;
};

RawReference raw_reference(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  RawReference ref;
  double lo = xs[0];
  double hi = xs[0];
  for (const double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  ref.shift = 0.5 * (lo + hi);
  ref.scale = 0.5 * (hi - lo);
  if (ref.scale <= 0.0) ref.scale = 1.0;
  const std::size_t m = xs.size();
  std::vector<double> design(3 * m, 1.0);
  for (std::size_t r = 0; r < m; ++r) {
    design[m + r] = (xs[r] - ref.shift) / ref.scale;
    design[2 * m + r] = design[m + r] * design[m + r];
  }
  std::vector<double> rhs = ys;
  try {
    ref.ls = math::solve_least_squares_columns(design, rhs, 3);
  } catch (const MathError&) {
    ref.threw = true;
  }
  return ref;
}

// The kernel's raw output — the scaled-basis coefficients, shift, scale
// and residual, before unscale evens out the signs of zeros — equals the
// scalar kernel's on polyfit's design, bit for bit, in every lane it does
// not flag; and every lane the scalar kernel rejects is flagged.
TEST(QuadraticLanesTest, RawKernelMatchesTheScalarKernel) {
  if (!math::quadratic_lanes_available()) {
    GTEST_SKIP() << "this CPU has no AVX2; the scalar fit serves every window";
  }
  util::Rng rng(41);
  math::QuadraticLanes lanes;
  std::vector<double> xs, ys;
  std::size_t compared = 0;
  for (const std::size_t m : {3, 4, 6, 256, 1000}) {
    for (std::size_t trial = 0; trial < 30; ++trial) {
      Window windows[4];
      for (std::size_t l = 0; l < 4; ++l) {
        const Law law = kLaws[(trial * 4 + l) % std::size(kLaws)];
        const double scale =
            std::pow(10.0, static_cast<double>((trial + l) % 13) - 6.0);
        windows[l] = make_window(static_cast<data::WorkerId>(l), m, law,
                                 scale, rng);
      }
      fill_lanes(lanes, windows);
      math::detail::QuadraticLaneFit raw;
      math::detail::quadratic_lanes_avx2(lanes.x.data(), lanes.y.data(),
                                         lanes.work.data(), m, raw);
      for (std::size_t l = 0; l < 4; ++l) {
        SCOPED_TRACE("m = " + std::to_string(m) + " trial " +
                     std::to_string(trial) + " lane " + std::to_string(l));
        split(windows[l], xs, ys);
        const RawReference ref = raw_reference(xs, ys);
        if (ref.threw) {
          EXPECT_TRUE(raw.irregular >> l & 1u);
          continue;
        }
        if (raw.irregular >> l & 1u) continue;
        EXPECT_EQ(bits(raw.shift[l]), bits(ref.shift));
        EXPECT_EQ(bits(raw.scale[l]), bits(ref.scale));
        for (std::size_t k = 0; k < 3; ++k) {
          EXPECT_EQ(bits(raw.coefficient[k][l]), bits(ref.ls.coefficients[k]))
              << "c" << k;
        }
        EXPECT_EQ(bits(raw.residual_norm[l]), bits(ref.ls.residual_norm));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 400u);
}

#endif  // CCD_POLYFIT_HAVE_AVX2

}  // namespace
}  // namespace ccd::effort
