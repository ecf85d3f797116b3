// The piecewise-linear contract of §III-A.
//
// A contract is defined on an effort grid {0, δ, 2δ, ..., mδ}: knot l sits
// at feedback d_l = ψ(lδ) and pays x_l, with compensation interpolated
// linearly between knots (Eq. 6) and saturating outside [d_0, d_m]. The
// decision variables of the bilevel program are exactly the x_l.
//
// A contract is immutable once built, so its knots and payments live in one
// shared block: copying a contract (every worker of a detected class gets
// the same one) bumps a reference count instead of copying m + 1 knots and
// payments, and a copy stays valid after the contract it came from is gone.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "effort/effort_model.hpp"

namespace ccd::contract {

class Contract {
 public:
  /// A contract that pays nothing regardless of feedback (exclusion).
  Contract() = default;

  /// `feedback_knots` strictly increasing (d_0..d_m), `payments` same size,
  /// non-negative and non-decreasing (monotonicity constraint Eq. 9/10).
  /// `delta` is the effort grid width the knots were generated from. Both
  /// vectors are copied into the contract's one shared block.
  Contract(double delta, const std::vector<double>& feedback_knots,
           const std::vector<double>& payments);

  /// Build knots from the effort model: d_l = psi(l * delta), l = 0..m,
  /// where m = payments.size() - 1.
  static Contract on_effort_grid(const effort::QuadraticEffort& psi,
                                 double delta,
                                 const std::vector<double>& payments);

  /// Copies share the block; a moved-from contract is the zero contract.
  Contract(const Contract&) = default;
  Contract& operator=(const Contract&) = default;
  Contract(Contract&& other) noexcept
      : delta_(other.delta_),
        points_(std::exchange(other.points_, 0)),
        block_(std::move(other.block_)) {}
  Contract& operator=(Contract&& other) noexcept {
    delta_ = other.delta_;
    points_ = std::exchange(other.points_, 0);
    block_ = std::move(other.block_);
    return *this;
  }

  bool is_zero() const { return points_ == 0; }

  /// Number of effort intervals m (0 for the zero contract).
  std::size_t intervals() const { return points_ == 0 ? 0 : points_ - 1; }

  double delta() const { return delta_; }

  /// Compensation for feedback q (Eq. 1 / Eq. 6, saturating).
  double pay(double feedback) const;

  /// Contract slope alpha_l on [d_{l-1}, d_l); l in [1, intervals()].
  double slope(std::size_t l) const;

  /// Payment at knot l (x_l); l in [0, intervals()].
  double payment(std::size_t l) const;

  /// Feedback knot d_l; l in [0, intervals()].
  double knot(std::size_t l) const;

  /// Largest payment (the saturation level x_m); 0 for the zero contract.
  double max_payment() const;

  std::string to_string(int precision = 4) const;

 private:
  const double* knots() const { return block_.get(); }
  const double* payments() const { return block_.get() + points_; }

  double delta_ = 0.0;
  /// Knot count m + 1; 0 for the zero contract (no block).
  std::size_t points_ = 0;
  /// d_0..d_m, then x_0..x_m. Never written after construction, so copies
  /// share it across threads without synchronization.
  std::shared_ptr<const double[]> block_;
};

}  // namespace ccd::contract
