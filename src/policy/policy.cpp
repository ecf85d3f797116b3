#include "policy/policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace ccd::policy {
namespace {

/// Learner-state frames start with the backend kind and a codec version so
/// a checkpoint restored into the wrong backend fails loudly, not quietly.
constexpr std::uint32_t kStateVersion = 1;

void check_state_header(util::wire::Reader& r, Kind expected) {
  const auto kind = r.u8();
  if (kind != static_cast<std::uint8_t>(expected)) {
    throw DataError(std::string("policy state is for backend '") +
                    to_string(static_cast<Kind>(kind)) + "', expected '" +
                    to_string(expected) + "'");
  }
  const auto version = r.u32();
  if (version != kStateVersion) {
    throw DataError("unsupported policy state version " +
                    std::to_string(version));
  }
}

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kBip: return "bip";
    case Kind::kZoomingBandit: return "bandit";
    case Kind::kPostedPrice: return "posted";
  }
  return "?";
}

Kind kind_from_string(const std::string& name) {
  if (name == "bip") return Kind::kBip;
  if (name == "bandit") return Kind::kZoomingBandit;
  if (name == "posted") return Kind::kPostedPrice;
  throw ConfigError("unknown policy backend '" + name +
                    "' (expected bip|bandit|posted)");
}

void PolicyConfig::validate() const {
  if (kind != Kind::kBip && kind != Kind::kZoomingBandit &&
      kind != Kind::kPostedPrice) {
    throw ConfigError("policy.kind out of range");
  }
  if (!(payment_cap > 0.0) || !std::isfinite(payment_cap)) {
    throw ConfigError("policy.payment_cap must be finite and > 0");
  }
  if (!(zoom_confidence > 0.0) || !std::isfinite(zoom_confidence)) {
    throw ConfigError("policy.zoom_confidence must be finite and > 0");
  }
  if (zoom_max_depth < 1 || zoom_max_depth > 16) {
    throw ConfigError("policy.zoom_max_depth must be in [1, 16]");
  }
  if (price_levels < 2 || price_levels > 1024) {
    throw ConfigError("policy.price_levels must be in [2, 1024]");
  }
  if (!(peer_tolerance > 0.0) || !(peer_tolerance <= 2.0)) {
    throw ConfigError("policy.peer_tolerance must be in (0, 2]");
  }
}

double invert_psi(const effort::QuadraticEffort& psi, double target) {
  const double hi = psi.usable_domain();
  if (target <= psi(0.0)) return 0.0;
  if (target >= psi(hi)) return hi;
  double lo = 0.0, up = hi;
  for (int i = 0; i < 64; ++i) {  // psi strictly increasing on [0, hi]
    const double mid = 0.5 * (lo + up);
    if (psi(mid) < target) {
      lo = mid;
    } else {
      up = mid;
    }
  }
  return up;
}

contract::Contract threshold_contract(const effort::QuadraticEffort& psi,
                                      double threshold_effort,
                                      double payment) {
  if (payment <= 0.0 || threshold_effort <= 0.0) return contract::Contract{};
  constexpr std::size_t kSteps = 10;  // payment mass on the last knot only
  std::vector<double> payments(kSteps + 1, 0.0);
  payments.back() = payment;
  return contract::Contract::on_effort_grid(
      psi, threshold_effort / static_cast<double>(kSteps),
      std::move(payments));
}

std::unique_ptr<Policy> make_policy(const PolicyConfig& config) {
  config.validate();
  switch (config.kind) {
    case Kind::kBip: return std::make_unique<BipPolicy>(config);
    case Kind::kZoomingBandit:
      return std::make_unique<ZoomingBanditPolicy>(config);
    case Kind::kPostedPrice:
      return std::make_unique<PostedPricePolicy>(config);
  }
  throw ConfigError("policy.kind out of range");
}

// --- BipPolicy ------------------------------------------------------------

BipPolicy::BipPolicy(const PolicyConfig& config) { config.validate(); }

bool BipPolicy::post(std::size_t round, bool redesign,
                     const std::vector<WorkerView>& views,
                     std::vector<contract::Contract>& contracts,
                     util::Rng& rng, const PostEnv& env) {
  (void)round;
  (void)rng;
  if (!redesign) return true;
  std::vector<contract::SubproblemSpec> specs(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    specs[i].psi = views[i].psi;
    specs[i].incentives.beta = views[i].beta;
    specs[i].incentives.omega = views[i].omega;
    specs[i].weight = views[i].weight;
    specs[i].mu = views[i].mu;
    specs[i].intervals = views[i].intervals;
  }
  contract::BatchOptions options;
  options.pool = env.pool;
  options.cache = env.cache;
  options.cancel = env.cancel;
  std::vector<std::uint8_t> resolved;
  options.resolved = &resolved;
  auto results = contract::design_contracts_batch(specs, options);
  if (env.cancel != nullptr && env.cancel->cancelled()) {
    // The batch was cut short: tell the caller to drop the round, exactly
    // as the pre-policy inline redesign did.
    return false;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    CCD_CHECK_MSG(resolved[i] != 0, "redesign batch left a worker unsolved");
    contracts[i] = std::move(results[i].contract);
  }
  return true;
}

void BipPolicy::observe(std::size_t, const std::vector<RoundOutcome>&,
                        util::Rng&) {}

std::string BipPolicy::save_state() const { return {}; }

void BipPolicy::load_state(const std::string& payload) {
  if (!payload.empty()) {
    throw DataError("bip policy carries no learner state, got " +
                    std::to_string(payload.size()) + " bytes");
  }
}

// --- ZoomingBanditPolicy --------------------------------------------------

namespace {
/// Half-width of a cell at `depth` in the unit square.
double cell_radius(std::uint32_t depth) {
  return std::ldexp(0.5, -static_cast<int>(depth));
}
}  // namespace

ZoomingBanditPolicy::ZoomingBanditPolicy(const PolicyConfig& config)
    : config_(config) {
  config_.validate();
}

std::size_t ZoomingBanditPolicy::select_cell(const Learner& learner) const {
  double best_index = -std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  for (std::size_t i = 0; i < learner.cells.size(); ++i) {
    const Cell& cell = learner.cells[i];
    if (cell.plays == 0) return i;  // first unplayed cell wins
    const double mean = cell.reward_sum / static_cast<double>(cell.plays);
    const double conf =
        config_.zoom_confidence *
        std::sqrt(std::log(static_cast<double>(learner.plays) + 2.0) /
                  static_cast<double>(cell.plays));
    const double index =
        mean + learner.scale * (conf + 2.0 * cell_radius(cell.depth));
    if (index > best_index) {
      best_index = index;
      best = i;
    }
  }
  return best;
}

void ZoomingBanditPolicy::maybe_split(Learner& learner,
                                      std::size_t cell_index) {
  const Cell cell = learner.cells[cell_index];
  if (cell.depth >= config_.zoom_max_depth) return;
  // Split once the confidence radius shrinks below the geometric radius:
  // zoom_confidence * sqrt(log(T + 2) / n) <= r  (the HSV zooming rule).
  const double r = cell_radius(cell.depth);
  const double needed = config_.zoom_confidence * config_.zoom_confidence *
                        std::log(static_cast<double>(learner.plays) + 2.0) /
                        (r * r);
  if (static_cast<double>(cell.plays) < needed) return;
  learner.cells.erase(learner.cells.begin() +
                      static_cast<std::ptrdiff_t>(cell_index));
  const double step = 0.5 * r;
  for (const double dy : {-step, step}) {
    for (const double dx : {-step, step}) {
      Cell child;
      child.cx = cell.cx + dx;
      child.cy = cell.cy + dy;
      child.depth = cell.depth + 1;
      learner.cells.push_back(child);
    }
  }
}

bool ZoomingBanditPolicy::post(std::size_t round, bool redesign,
                               const std::vector<WorkerView>& views,
                               std::vector<contract::Contract>& contracts,
                               util::Rng& rng, const PostEnv& env) {
  (void)round;
  (void)redesign;
  (void)rng;
  (void)env;
  if (learners_.size() < views.size()) learners_.resize(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const WorkerView& view = views[i];
    Learner& learner = learners_[i];
    if (!view.active || view.weight <= 0.0) {
      contracts[i] = contract::Contract{};
      learner.pending = kNoPending;
      continue;
    }
    if (learner.cells.empty()) learner.cells.push_back(Cell{});
    const std::size_t chosen = select_cell(learner);
    const Cell& cell = learner.cells[chosen];
    const double payment = clamp01(cell.cx) * config_.payment_cap;
    const double threshold =
        std::clamp(cell.cy, 0.05, 1.0) * view.psi.usable_domain();
    contracts[i] = threshold_contract(view.psi, threshold, payment);
    learner.pending = static_cast<std::uint32_t>(chosen);
  }
  return true;
}

void ZoomingBanditPolicy::observe(std::size_t round,
                                  const std::vector<RoundOutcome>& outcomes,
                                  util::Rng& rng) {
  (void)round;
  (void)rng;
  const std::size_t n = std::min(outcomes.size(), learners_.size());
  for (std::size_t i = 0; i < n; ++i) {
    Learner& learner = learners_[i];
    if (learner.pending == kNoPending) continue;
    const std::size_t idx = learner.pending;
    learner.pending = kNoPending;
    const RoundOutcome& outcome = outcomes[i];
    if (!outcome.active) continue;  // churned out between post and settle
    Cell& cell = learner.cells[idx];
    cell.plays += 1;
    cell.reward_sum += outcome.reward;
    learner.plays += 1;
    learner.scale = std::max(learner.scale, std::fabs(outcome.reward));
    maybe_split(learner, idx);
  }
}

std::string ZoomingBanditPolicy::save_state() const {
  util::wire::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kZoomingBandit));
  w.u32(kStateVersion);
  w.u64(learners_.size());
  for (const Learner& learner : learners_) {
    w.u64(learner.plays);
    w.f64(learner.scale);
    w.u32(learner.pending);
    w.u64(learner.cells.size());
    for (const Cell& cell : learner.cells) {
      w.f64(cell.cx);
      w.f64(cell.cy);
      w.u32(cell.depth);
      w.u64(cell.plays);
      w.f64(cell.reward_sum);
    }
  }
  return w.take();
}

void ZoomingBanditPolicy::load_state(const std::string& payload) {
  learners_.clear();
  if (payload.empty()) return;
  util::wire::Reader r(payload);
  check_state_header(r, Kind::kZoomingBandit);
  const std::size_t n = r.count(8);
  learners_.resize(n);
  for (Learner& learner : learners_) {
    learner.plays = r.u64();
    learner.scale = r.f64();
    learner.pending = r.u32();
    const std::size_t cells = r.count(8 + 8 + 4 + 8 + 8);
    learner.cells.resize(cells);
    for (Cell& cell : learner.cells) {
      cell.cx = r.f64();
      cell.cy = r.f64();
      cell.depth = r.u32();
      cell.plays = r.u64();
      cell.reward_sum = r.f64();
    }
    if (learner.pending != kNoPending &&
        learner.pending >= learner.cells.size()) {
      throw DataError("bandit policy state: pending cell out of range");
    }
  }
  r.finish();
}

// --- PostedPricePolicy ----------------------------------------------------

PostedPricePolicy::PostedPricePolicy(const PolicyConfig& config)
    : config_(config) {
  config_.validate();
}

double PostedPricePolicy::price(std::size_t level) const {
  return config_.payment_cap * static_cast<double>(level + 1) /
         static_cast<double>(config_.price_levels);
}

void PostedPricePolicy::maybe_eliminate(Learner& learner) {
  std::size_t active = 0;
  for (const Arm& arm : learner.arms) {
    if (!arm.active) continue;
    ++active;
    if (arm.plays < kEliminationBatch) return;  // still exploring
  }
  if (active < 2) return;
  const double log_t =
      std::log(static_cast<double>(learner.plays) + 2.0);
  double best_lcb = -std::numeric_limits<double>::infinity();
  for (const Arm& arm : learner.arms) {
    if (!arm.active) continue;
    const double mean = arm.reward_sum / static_cast<double>(arm.plays);
    const double conf =
        learner.scale * std::sqrt(log_t / static_cast<double>(arm.plays));
    best_lcb = std::max(best_lcb, mean - conf);
  }
  for (Arm& arm : learner.arms) {
    if (!arm.active) continue;
    const double mean = arm.reward_sum / static_cast<double>(arm.plays);
    const double conf =
        learner.scale * std::sqrt(log_t / static_cast<double>(arm.plays));
    if (mean + conf < best_lcb) arm.active = false;
  }
}

bool PostedPricePolicy::post(std::size_t round, bool redesign,
                             const std::vector<WorkerView>& views,
                             std::vector<contract::Contract>& contracts,
                             util::Rng& rng, const PostEnv& env) {
  (void)round;
  (void)redesign;
  (void)rng;
  (void)env;
  if (learners_.size() < views.size()) learners_.resize(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const WorkerView& view = views[i];
    Learner& learner = learners_[i];
    if (!view.active || view.weight <= 0.0) {
      contracts[i] = contract::Contract{};
      learner.pending = kNoPending;
      continue;
    }
    if (learner.arms.empty()) learner.arms.resize(config_.price_levels);
    // Least-played surviving price, lowest level on ties (round-robin
    // exploration; collapses to the single survivor after elimination).
    std::size_t chosen = learner.arms.size();
    for (std::size_t j = 0; j < learner.arms.size(); ++j) {
      const Arm& arm = learner.arms[j];
      if (!arm.active) continue;
      if (chosen == learner.arms.size() ||
          arm.plays < learner.arms[chosen].plays) {
        chosen = j;
      }
    }
    CCD_CHECK(chosen < learner.arms.size());
    const double domain = view.psi.usable_domain();
    double threshold = 0.5 * domain;
    if (peer_rounds_ > 0) {
      const double target = config_.peer_tolerance * peer_mean_;
      if (target > view.psi(0.0)) threshold = invert_psi(view.psi, target);
    }
    threshold = std::clamp(threshold, 0.05 * domain, domain);
    contracts[i] = threshold_contract(view.psi, threshold, price(chosen));
    learner.pending = static_cast<std::uint32_t>(chosen);
  }
  return true;
}

void PostedPricePolicy::observe(std::size_t round,
                                const std::vector<RoundOutcome>& outcomes,
                                util::Rng& rng) {
  (void)round;
  (void)rng;
  double feedback_sum = 0.0;
  std::size_t active = 0;
  for (const RoundOutcome& outcome : outcomes) {
    if (!outcome.active) continue;
    feedback_sum += outcome.feedback;
    ++active;
  }
  if (active > 0) {
    const double mean = feedback_sum / static_cast<double>(active);
    peer_mean_ = peer_rounds_ == 0 ? mean : 0.8 * peer_mean_ + 0.2 * mean;
    peer_rounds_ += 1;
  }
  const std::size_t n = std::min(outcomes.size(), learners_.size());
  for (std::size_t i = 0; i < n; ++i) {
    Learner& learner = learners_[i];
    if (learner.pending == kNoPending) continue;
    const std::size_t idx = learner.pending;
    learner.pending = kNoPending;
    const RoundOutcome& outcome = outcomes[i];
    if (!outcome.active) continue;
    Arm& arm = learner.arms[idx];
    arm.plays += 1;
    arm.reward_sum += outcome.reward;
    learner.plays += 1;
    learner.scale = std::max(learner.scale, std::fabs(outcome.reward));
    maybe_eliminate(learner);
  }
}

std::string PostedPricePolicy::save_state() const {
  util::wire::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kPostedPrice));
  w.u32(kStateVersion);
  w.f64(peer_mean_);
  w.u64(peer_rounds_);
  w.u64(learners_.size());
  for (const Learner& learner : learners_) {
    w.u64(learner.plays);
    w.f64(learner.scale);
    w.u32(learner.pending);
    w.u64(learner.arms.size());
    for (const Arm& arm : learner.arms) {
      w.u64(arm.plays);
      w.f64(arm.reward_sum);
      w.u8(arm.active ? 1 : 0);
    }
  }
  return w.take();
}

void PostedPricePolicy::load_state(const std::string& payload) {
  learners_.clear();
  peer_mean_ = 0.0;
  peer_rounds_ = 0;
  if (payload.empty()) return;
  util::wire::Reader r(payload);
  check_state_header(r, Kind::kPostedPrice);
  peer_mean_ = r.f64();
  peer_rounds_ = r.u64();
  const std::size_t n = r.count(8);
  learners_.resize(n);
  for (Learner& learner : learners_) {
    learner.plays = r.u64();
    learner.scale = r.f64();
    learner.pending = r.u32();
    const std::size_t arms = r.count(8 + 8 + 1);
    learner.arms.resize(arms);
    for (Arm& arm : learner.arms) {
      arm.plays = r.u64();
      arm.reward_sum = r.f64();
      arm.active = r.u8() != 0;
    }
    if (learner.pending != kNoPending &&
        learner.pending >= learner.arms.size()) {
      throw DataError("posted policy state: pending arm out of range");
    }
  }
  r.finish();
}

}  // namespace ccd::policy
