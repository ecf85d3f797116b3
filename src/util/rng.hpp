// Deterministic pseudo-random number generation for simulations.
//
// We implement xoshiro256++ (Blackman & Vigna) rather than relying on
// std::mt19937 so that (a) streams are reproducible across standard-library
// implementations, and (b) `split()` can derive independent child streams for
// parallel generation without sharing state.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ccd::util {

/// Complete generator state, for bitwise-exact checkpoint/resume: the four
/// xoshiro words plus the cached second Box–Muller deviate (a resumed
/// stream must replay it before drawing a fresh pair).
struct RngState {
  std::array<std::uint64_t, 4> words{};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

class Rng {
 public:
  /// Seeds the four 64-bit words from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached second deviate).
  double normal();
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log);

  /// Poisson via inversion for small means, normal approximation for large.
  std::uint64_t poisson(double mean);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derive an independent child stream (for per-thread generation).
  Rng split();

  /// Snapshot / restore the full generator state. A generator restored from
  /// state() continues the original stream bitwise-identically.
  RngState state() const;
  void set_state(const RngState& state);

 private:
  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ccd::util
