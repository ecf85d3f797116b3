#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ccd::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start in the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  CCD_CHECK_MSG(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CCD_CHECK_MSG(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  // Unsigned arithmetic: hi - lo overflows int64 for ranges wider than
  // INT64_MAX, and the full range's span wraps to 0.
  const std::uint64_t base = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - base + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t draw = next_u64();
  while (draw >= limit) draw = next_u64();
  return static_cast<std::int64_t>(base + draw % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 bounded away from 0 so log() is finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  CCD_CHECK_MSG(stddev >= 0.0, "normal stddev must be non-negative");
  return mean + stddev * normal();
}

double Rng::lognormal(double mu_log, double sigma_log) {
  return std::exp(normal(mu_log, sigma_log));
}

std::uint64_t Rng::poisson(double mean) {
  CCD_CHECK_MSG(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double product = uniform();
    while (product > limit) {
      ++k;
      product *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction, clipped at zero.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

bool Rng::bernoulli(double p) {
  CCD_CHECK_MSG(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0, 1]");
  return uniform() < p;
}

RngState Rng::state() const {
  return RngState{state_, has_cached_normal_, cached_normal_};
}

void Rng::set_state(const RngState& state) {
  CCD_CHECK_MSG(state.words[0] != 0 || state.words[1] != 0 ||
                    state.words[2] != 0 || state.words[3] != 0,
                "Rng state must not be all-zero");
  state_ = state.words;
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

Rng Rng::split() {
  // A fresh generator seeded from this stream's output is statistically
  // independent for our simulation purposes.
  return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace ccd::util
