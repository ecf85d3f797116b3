// Least-squares polynomial fitting (the paper's "effort function fitting",
// §IV-B / Table III).
//
// Fits p(x) = c0 + c1 x + ... + c_d x^d to (x, y) samples by Householder QR
// on the Vandermonde system, and reports the norm of residuals (NoR) — the
// same deviation measure the paper tabulates.
//
// Quadratic fits (degree 2: the concave psi of every class, community and
// ingest window) run through fused kernels. They make 7 passes over a
// window where building the design and running the generic Householder
// loop make 14: the centering scan, then one pass per round of
// reductions, each reduction summed as the pass before it writes its
// rows. They perform the generic loop's IEEE operations in its order
// (multiplies, adds, subtracts, divides, square roots, ordered compares;
// no FMA), so every fit they return is bit-for-bit the generic loop's. A
// window where that loop would throw or skip a reflection is flagged
// instead, for the generic loop to fit. The two kernels are kept side by
// side with matching comments:
//  * the one-window kernel (polyfit.cpp, baseline ISA) behind
//    polyfit(xs, ys, 2) and polyfit_quadratic_in_place, for one window of
//    any length held as plain columns;
//  * the lane kernel (polyfit_avx2.cpp) behind polyfit_quadratic_lanes,
//    four equal-length windows at once, interleaved one per AVX2 lane.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <span>
#include <vector>

#include "math/polynomial.hpp"

namespace ccd::math {

struct PolyFitResult {
  Polynomial polynomial;
  double norm_of_residuals = 0.0;  ///< ||y - p(x)||2 (MATLAB-style NoR)
};

/// Fit a degree-`degree` polynomial. Requires xs.size() == ys.size() and at
/// least degree+1 samples. For numerical stability the x values are centered
/// and scaled internally; returned coefficients are in the original units.
/// Degree 2 runs the one-window kernel on copies of xs and ys, and the
/// generic loop only for a window the kernel flags; other degrees run the
/// generic loop.
PolyFitResult polyfit(const std::vector<double>& xs,
                      const std::vector<double>& ys, std::size_t degree);

/// polyfit(x, y, 2) on one window held in caller-owned columns, with no
/// copy: x and y hold the window's samples, work is scratch of the same
/// length (>= 3), and all three are overwritten. Runs polyfit's
/// "math.polyfit" fault point with polyfit's key first. Returns polyfit's
/// result, or std::nullopt where polyfit would throw for a rank-deficient
/// design or skip a reflection: refit such a window through polyfit, from
/// its samples.
std::optional<PolyFitResult> polyfit_quadratic_in_place(
    std::span<double> x, std::span<double> y, std::span<double> work);

/// True when this CPU runs polyfit_quadratic_lanes (x86-64 with AVX2).
bool quadratic_lanes_available();

/// Four windows of `samples` samples each, laid out for
/// polyfit_quadratic_lanes, and its per-lane results. The windows are
/// lane-interleaved: sample r of lane l is x[kLanes * r + l]. Reused
/// across calls, so it allocates only to grow.
struct QuadraticLanes {
  static constexpr std::size_t kLanes = 4;

  /// Size x, y and the kernel's scratch for windows of `samples` (>= 3).
  void resize(std::size_t samples);

  std::size_t samples = 0;
  std::vector<double> x;  ///< efforts; overwritten by the fit
  std::vector<double> y;  ///< feedback; overwritten by the fit
  std::vector<double> work;

  /// Lane l's bit is set in `fitted` when fit[l] is polyfit's result, and
  /// in `failed` when error[l] is the exception polyfit throws.
  unsigned fitted = 0;
  unsigned failed = 0;
  PolyFitResult fit[kLanes];
  std::exception_ptr error[kLanes];
};

/// polyfit(xs, ys, 2) on each lane whose bit is set in `lanes_mask` (bit
/// l = lane l). Runs polyfit's "math.polyfit" fault point for every such
/// lane with polyfit's key; a lane it fires for is `failed`. A lane the
/// kernel flags — where polyfit throws for a rank-deficient design or
/// skips a reflection — is neither fitted nor failed: refit it through
/// polyfit. Requires quadratic_lanes_available().
void polyfit_quadratic_lanes(QuadraticLanes& lanes, unsigned lanes_mask);

namespace detail {

/// The lane kernel's raw output: the fit in the centered and scaled
/// variable u = (x - shift) / scale, before polyfit's unscale.
struct QuadraticLaneFit {
  double coefficient[3][QuadraticLanes::kLanes] = {};
  double shift[QuadraticLanes::kLanes] = {};
  double scale[QuadraticLanes::kLanes] = {};
  double residual_norm[QuadraticLanes::kLanes] = {};
  unsigned irregular = 0;  ///< lane bits polyfit does not fit this way
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CCD_POLYFIT_HAVE_AVX2 1
bool avx2_supported();
/// x, y and work hold kLanes * m doubles each (see QuadraticLanes).
void quadratic_lanes_avx2(double* x, double* y, double* work, std::size_t m,
                          QuadraticLaneFit& out);
#endif

}  // namespace detail

/// NoR of an existing polynomial against a sample set.
double norm_of_residuals(const Polynomial& p, const std::vector<double>& xs,
                         const std::vector<double>& ys);

/// Fit each degree in [min_degree, max_degree] and return the NoRs, in
/// order — one row of the paper's Table III.
std::vector<double> nor_by_degree(const std::vector<double>& xs,
                                  const std::vector<double>& ys,
                                  std::size_t min_degree,
                                  std::size_t max_degree);

}  // namespace ccd::math
