// Multi-backend contract designers: the per-round policy seam of the
// Stackelberg loop (ROADMAP item 3).
//
// The paper's BiP designer assumes the effort function psi and the worker
// incentives are *known* (fit offline from logged traces); the related work
// drops that assumption and learns contracts online. A Policy closes the
// loop either way: each round the caller hands it what the requester
// currently believes about every worker (WorkerView), the policy posts the
// next round's per-worker contracts, and — for the learning backends — it
// is fed the realized outcomes (RoundOutcome) to update its learner state.
//
// Three backends:
//
//  * BipPolicy — the paper baseline. Wraps the existing
//    contract::design_contracts_batch / DesignCache path verbatim: on each
//    redesign round it solves the bilevel program for the views as given.
//    Stateless; bitwise-identical to the pre-policy simulator.
//
//  * ZoomingBanditPolicy — after Ho–Slivkins–Vaughan, "Adaptive Contract
//    Design for Crowdsourcing Markets" (arXiv:1405.2875). Per worker, an
//    adaptive discretization (a quadtree of cells with per-cell confidence
//    radii) of the normalized (payment, threshold-effort) contract space;
//    each round the cell with the highest optimistic index is played as a
//    near-step threshold contract, and a cell splits into its four
//    quadrants once its confidence radius shrinks below its geometric
//    radius — the zooming rule that refines only near-optimal regions.
//
//  * PostedPricePolicy — after Liu–Chen, "Sequential Peer Prediction:
//    Learning to Elicit Effort using Posted Prices" (arXiv:1611.09219).
//    Per worker, successive elimination over a fixed grid of posted
//    prices; the effort threshold the price is posted against tracks a
//    trailing peer-consistency statistic (the fleet-wide mean feedback),
//    so a worker is paid for clearing what its peers demonstrably deliver.
//
// Determinism contract: post()/observe() may draw randomness *only* from
// the caller-supplied Rng (the simulator passes its checkpointed stream).
// Tie-breaks are by lowest index, never by address or hash order, so a run
// is bitwise-reproducible across thread counts and kill/resume. Learner
// state is serialized by save_state()/load_state() at round boundaries and
// rides the SCKP v3 / ISES v2 checkpoint frames; a posted-but-unobserved
// arm (the ingest flow checkpoints right after posting) is part of that
// state, so a resumed learner still credits it on the next observe().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "contract/contract.hpp"
#include "contract/design_cache.hpp"
#include "effort/effort_model.hpp"
#include "util/rng.hpp"

namespace ccd::util {
class CancellationToken;
class ThreadPool;
}

namespace ccd::policy {

enum class Kind : std::uint8_t {
  kBip = 0,          ///< paper baseline: bilevel-program designer
  kZoomingBandit = 1,  ///< HSV adaptive discretization
  kPostedPrice = 2,  ///< Liu–Chen posted-price elicitation
};

const char* to_string(Kind kind);

/// Parses "bip" | "bandit" | "posted"; throws ccd::ConfigError otherwise.
Kind kind_from_string(const std::string& name);

/// Backend selection plus the learning backends' knobs. A value member of
/// core::SimConfig; serialized into SCKP v3 config sections and the CSRV
/// open frame, so field changes require a version bump there.
struct PolicyConfig {
  Kind kind = Kind::kBip;
  /// Largest per-round payment a learned arm may promise (the learners'
  /// contract space is (payment, threshold) in [0, payment_cap] x (0, 1]).
  double payment_cap = 12.0;
  /// Zooming bandit: confidence-radius scale (larger explores longer).
  double zoom_confidence = 0.8;
  /// Zooming bandit: maximum quadtree depth (cells stop splitting there;
  /// depth 6 resolves the space to ~1.6% per axis).
  std::size_t zoom_max_depth = 6;
  /// Posted price: number of price levels on the grid.
  std::size_t price_levels = 12;
  /// Posted price: fraction of the trailing peer mean feedback a worker
  /// must clear to be paid (the peer-consistency threshold).
  double peer_tolerance = 0.75;

  void validate() const;  ///< throws ccd::ConfigError
};

/// What the requester currently believes about one worker — everything a
/// backend may condition on. core::Requester::post fills these from its
/// beliefs (believed ψ and β, EMA accuracy/maliciousness, Eq. 5 weight)
/// for the simulator and serve ingest sessions alike.
struct WorkerView {
  effort::QuadraticEffort psi{-1.0, 8.0, 2.0};
  double beta = 1.0;
  double omega = 0.0;   ///< attributed influence weight (0 = trusted honest)
  double weight = 1.0;  ///< Eq. 5 feedback weight (<= 0 excludes the worker)
  double mu = 1.0;
  std::size_t intervals = 20;
  bool active = true;  ///< false = churned out this round (no contract)
};

/// Realized outcome of one round for one worker, fed back to learning
/// backends. `reward` is the requester's per-worker steady-state utility
/// of the posted arm: weight * feedback - mu * pay(feedback).
struct RoundOutcome {
  bool active = false;
  double feedback = 0.0;
  double reward = 0.0;
};

/// Shared machinery post() may use (all optional).
struct PostEnv {
  util::ThreadPool* pool = nullptr;
  contract::DesignCache* cache = nullptr;
  const util::CancellationToken* cancel = nullptr;
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual Kind kind() const = 0;

  /// True for backends whose observe() must be fed every round. The
  /// simulator skips outcome assembly entirely for non-learning backends,
  /// keeping the BiP path's per-round cost (and RNG stream) unchanged.
  virtual bool learns() const = 0;

  /// Post round `round`'s contracts: overwrite `contracts` (sized to
  /// `views`) in place. `redesign` is true on the caller's redesign
  /// cadence (BiP only re-solves then; the learners post fresh arms every
  /// round). Returns false iff cancelled mid-solve via env.cancel — the
  /// caller then discards the round, exactly like the pre-policy batch.
  virtual bool post(std::size_t round, bool redesign,
                    const std::vector<WorkerView>& views,
                    std::vector<contract::Contract>& contracts, util::Rng& rng,
                    const PostEnv& env) = 0;

  /// Feed the realized outcomes of round `round` (same indexing as the
  /// views passed to post). Only called when learns() is true.
  virtual void observe(std::size_t round,
                       const std::vector<RoundOutcome>& outcomes,
                       util::Rng& rng) = 0;

  /// Serialize the learner state (empty for stateless backends), including
  /// any posted-but-unobserved arm, so a checkpoint taken between post()
  /// and observe() still resumes bitwise.
  virtual std::string save_state() const = 0;

  /// Restore state produced by save_state() of the same backend kind.
  /// Empty string = fresh start. Throws ccd::DataError on a foreign or
  /// corrupt payload.
  virtual void load_state(const std::string& payload) = 0;
};

/// Instantiate the configured backend (validates `config`).
std::unique_ptr<Policy> make_policy(const PolicyConfig& config);

/// Smallest effort y in [0, psi.usable_domain()] with psi(y) >= target
/// (clamped to the domain ends). Deterministic bisection; exposed for the
/// posted-price backend and its tests.
double invert_psi(const effort::QuadraticEffort& psi, double target);

/// The learners' arm family: a near-step threshold contract that pays
/// `payment` once feedback clears ~psi(threshold_effort), built as a
/// 10-interval effort grid with all payment mass on the last knot.
/// `payment <= 0` or `threshold_effort <= 0` yields the zero contract.
contract::Contract threshold_contract(const effort::QuadraticEffort& psi,
                                      double threshold_effort, double payment);

// --- Concrete backends (constructible directly in tests; production code
// --- goes through make_policy) -------------------------------------------

class BipPolicy final : public Policy {
 public:
  explicit BipPolicy(const PolicyConfig& config);

  Kind kind() const override { return Kind::kBip; }
  bool learns() const override { return false; }
  bool post(std::size_t round, bool redesign,
            const std::vector<WorkerView>& views,
            std::vector<contract::Contract>& contracts, util::Rng& rng,
            const PostEnv& env) override;
  void observe(std::size_t round, const std::vector<RoundOutcome>& outcomes,
               util::Rng& rng) override;
  std::string save_state() const override;
  void load_state(const std::string& payload) override;
};

class ZoomingBanditPolicy final : public Policy {
 public:
  explicit ZoomingBanditPolicy(const PolicyConfig& config);

  Kind kind() const override { return Kind::kZoomingBandit; }
  bool learns() const override { return true; }
  bool post(std::size_t round, bool redesign,
            const std::vector<WorkerView>& views,
            std::vector<contract::Contract>& contracts, util::Rng& rng,
            const PostEnv& env) override;
  void observe(std::size_t round, const std::vector<RoundOutcome>& outcomes,
               util::Rng& rng) override;
  std::string save_state() const override;
  void load_state(const std::string& payload) override;

 private:
  /// One quadtree cell of a worker's adaptive discretization. (cx, cy) is
  /// the cell center in the normalized contract square, half-width
  /// 0.5 / 2^depth.
  struct Cell {
    double cx = 0.5;
    double cy = 0.5;
    std::uint32_t depth = 0;
    std::uint64_t plays = 0;
    double reward_sum = 0.0;
  };
  struct Learner {
    std::vector<Cell> cells;
    std::uint64_t plays = 0;
    /// Running max |reward| (floor 1): scales confidence radii and the
    /// Lipschitz slack so the index works on unnormalized rewards.
    double scale = 1.0;
    std::uint32_t pending = kNoPending;
  };
  static constexpr std::uint32_t kNoPending = 0xffffffffu;

  std::size_t select_cell(const Learner& learner) const;
  void maybe_split(Learner& learner, std::size_t cell_index);

  PolicyConfig config_;
  std::vector<Learner> learners_;  ///< grown on demand, indexed by worker
};

class PostedPricePolicy final : public Policy {
 public:
  explicit PostedPricePolicy(const PolicyConfig& config);

  Kind kind() const override { return Kind::kPostedPrice; }
  bool learns() const override { return true; }
  bool post(std::size_t round, bool redesign,
            const std::vector<WorkerView>& views,
            std::vector<contract::Contract>& contracts, util::Rng& rng,
            const PostEnv& env) override;
  void observe(std::size_t round, const std::vector<RoundOutcome>& outcomes,
               util::Rng& rng) override;
  std::string save_state() const override;
  void load_state(const std::string& payload) override;

 private:
  struct Arm {
    std::uint64_t plays = 0;
    double reward_sum = 0.0;
    bool active = true;
  };
  struct Learner {
    std::vector<Arm> arms;
    std::uint64_t plays = 0;
    double scale = 1.0;  ///< running max |reward| (floor 1)
    std::uint32_t pending = kNoPending;
  };
  static constexpr std::uint32_t kNoPending = 0xffffffffu;
  /// Plays every surviving arm needs before an elimination sweep runs.
  static constexpr std::uint64_t kEliminationBatch = 4;

  double price(std::size_t level) const;
  void maybe_eliminate(Learner& learner);

  PolicyConfig config_;
  std::vector<Learner> learners_;
  /// Trailing EMA of the fleet-wide mean feedback — the peer-consistency
  /// statistic the posted threshold tracks.
  double peer_mean_ = 0.0;
  std::uint64_t peer_rounds_ = 0;
};

}  // namespace ccd::policy
