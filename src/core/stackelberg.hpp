// Multi-round Stackelberg simulation (§III-B): the requester leads by
// posting per-worker contracts, workers follow with effort choices, and the
// compensation of round t is the contract applied to round t-1's realized
// feedback (Eq. 1).
//
// The simulator models what the one-shot pipeline cannot: adaptation. The
// requester only observes noisy per-round signals (realized feedback and a
// noisy score-deviation sample), keeps exponential-moving-average estimates
// of each worker's accuracy and maliciousness, and re-designs contracts on
// a schedule. Worker specs can switch behaviour mid-simulation (an honest
// worker turning malicious, or vice versa), which is the "adaptive to
// changes in workers' behavior" property the paper claims.
//
// The simulator is the composition of the game's two halves, each written
// once in core: a core::Requester (beliefs, Eq. 5 weights, policy backend,
// posted contracts — shared with serve ingest sessions) and
// play_worker_round (best response and observation noise — shared with
// scenario::IngestFeed). What stays here is the round accounting of Eq. 1
// and the result history.
// Durability & deadlines: run(cancel) polls the token at round boundaries
// and returns a well-formed partial SimResult (cancelled flag + reason set)
// instead of throwing. With checkpoint_path configured the simulator
// serializes its complete dynamic state (RNG, estimates, contracts,
// feedback memory, accumulated history) every checkpoint_every rounds and
// on cancellation, via the crash-safe framed format in util/atomic_file; a
// simulator constructed from that SimCheckpoint continues the run
// bitwise-identically — the resumed result (restored prefix + continuation)
// equals the uninterrupted run's, at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "core/requester.hpp"
#include "effort/effort_model.hpp"
#include "policy/policy.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace ccd::util {
class ThreadPool;
}

namespace ccd::core {

struct SimCheckpoint;

struct SimWorkerSpec {
  std::string name = "worker";
  /// True effort function (the simulator's physics).
  effort::QuadraticEffort psi{-1.0, 8.0, 2.0};
  double beta = 1.0;
  /// True feedback-influence motive (0 = honest behaviour).
  double omega = 0.0;
  /// True mean |score - consensus| the worker produces.
  double accuracy_distance = 0.3;
  std::size_t partners = 0;
  /// Behaviour switch: from this round on, omega / accuracy change.
  std::optional<std::size_t> switch_round;
  double switched_omega = 0.0;
  double switched_accuracy_distance = 0.3;

  /// Masking adversary (paper §VII's "more sophisticated malicious
  /// workers"): the worker cycles with the given period, behaving honest
  /// for `masking_duty` of each cycle and malicious (the switched_* values)
  /// for the rest. Composes with switch_round: masking only starts once the
  /// switch (if any) has fired.
  std::optional<std::size_t> masking_period;
  double masking_duty = 0.5;

  /// Churn window: the worker participates only on rounds in
  /// [arrive_round, depart_round). Outside the window the requester
  /// assigns it weight 0 (→ zero contract at the next redesign), the
  /// worker produces no feedback and is paid nothing, its estimates
  /// freeze, and — critically for determinism — no RNG values are drawn
  /// for it.
  std::size_t arrive_round = 0;
  std::optional<std::size_t> depart_round;
  bool active_at(std::size_t round) const {
    return round >= arrive_round && (!depart_round || round < *depart_round);
  }

  /// Effective behaviour at round t under switch + masking rules.
  struct Behaviour {
    double omega = 0.0;
    double accuracy_distance = 0.3;
    bool malicious_now = false;
  };
  Behaviour behaviour_at(std::size_t round) const;
};

/// Largest private pool a SimConfig may ask for. `threads` arrives from
/// the command line and from checkpoint blobs, and the simulator starts
/// that many OS threads when it is built.
inline constexpr std::size_t kMaxSimThreads = 256;

struct SimConfig {
  std::size_t rounds = 30;
  RequesterConfig requester{};
  /// Std-dev of the noise on realized feedback.
  double feedback_noise = 0.5;
  /// Std-dev of the noise on the requester's per-round accuracy sample.
  double accuracy_noise = 0.15;
  /// Contracts are re-designed every this many rounds (1 = every round).
  std::size_t redesign_every = 1;
  /// EMA rate for the requester's accuracy / maliciousness estimates.
  double ema_alpha = 0.3;
  /// Requester's assumed omega for workers it currently suspects.
  double suspicion_threshold = 0.5;
  std::uint64_t seed = 1;

  /// Contract designer backend (ccd::policy): the paper's BiP solver by
  /// default, or one of the online learners. Learner state is checkpointed
  /// (SCKP v3) and restored alongside the rest of the dynamic state, and
  /// backends draw only from the simulator's checkpointed RNG, so every
  /// backend keeps the bitwise resume contract.
  policy::PolicyConfig policy{};

  /// Write a crash-safe checkpoint to `checkpoint_path` after every this
  /// many completed rounds (0 disables periodic checkpoints). A cancelled
  /// run writes a final checkpoint at its round boundary whenever
  /// `checkpoint_path` is set, independent of this cadence.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;

  /// Threads for the per-round contract-redesign batch: 0 uses the shared
  /// pool, otherwise the simulator owns a pool of this size, at most
  /// kMaxSimThreads. Results are thread-count independent.
  std::size_t threads = 0;

  void validate() const;
};

/// Per-round callback hook — the extension point the adversarial scenario
/// engine (ccd::scenario) and baseline contract policies plug into. Every
/// method runs at a deterministic point inside step() and receives the
/// simulator's own (checkpointed) RNG, so hook draws are bitwise
/// resume-safe. The hook pointer itself is NOT part of a checkpoint: a
/// caller restoring a simulator must re-attach its hook before continuing,
/// and the hook must derive any internal state from the arguments it is
/// passed (e.g. the posted contracts), never from wall-clock history.
class RoundHook {
 public:
  virtual ~RoundHook() = default;

  /// Called every round right after the (possible) redesign; `redesigned`
  /// is true on rounds where the design batch ran. May mutate the posted
  /// contracts — baseline policies override them wholesale, adaptive
  /// adversaries inspect them to pick targets.
  virtual void on_contracts_posted(std::size_t round, bool redesigned,
                                   std::vector<contract::Contract>& contracts,
                                   const std::vector<double>& est_malicious,
                                   util::Rng& rng);

  /// Tamper with `worker`'s realized feedback for this round (called after
  /// the simulator's own noise, before the >= 0 clamp).
  virtual double adjust_feedback(std::size_t round, std::size_t worker,
                                 double feedback, util::Rng& rng);

  /// Tamper with the requester's accuracy sample for `worker` (called
  /// after the simulator's own noise, before the >= 0 clamp and the EMA
  /// update).
  virtual double adjust_accuracy_sample(std::size_t round, std::size_t worker,
                                        double sample, util::Rng& rng);
};

/// One active worker's round as play_worker_round computes it.
struct WorkerPlay {
  double omega = 0.0;   ///< feedback-influence motive this round
  double effort = 0.0;  ///< best response to the posted contract
  /// Realized feedback: noisy around psi(effort), hook-adjusted, >= 0.
  double feedback = 0.0;
  /// The requester's accuracy sample: noisy around the true accuracy
  /// distance, hook-adjusted, >= 0.
  double accuracy_sample = 0.0;
};

/// The worker half of the game for active worker `index` in round `round`:
/// its behaviour (switch / masking), its best response to `posted`, then,
/// drawing from `rng` in this order, feedback noise, the hook's
/// adjust_feedback, the >= 0 clamp, accuracy-sample noise, the hook's
/// adjust_accuracy_sample and its clamp. `hook` may be null. The simulator
/// and scenario::IngestFeed both play their workers through it.
WorkerPlay play_worker_round(const SimWorkerSpec& worker, std::size_t index,
                             std::size_t round,
                             const contract::Contract& posted,
                             double feedback_noise, double accuracy_noise,
                             RoundHook* hook, util::Rng& rng);

struct WorkerRound {
  double effort = 0.0;
  double feedback = 0.0;      ///< realized (noisy) feedback this round
  double compensation = 0.0;  ///< paid this round (from last round's feedback)
  double worker_utility = 0.0;
  double estimated_malicious = 0.0;  ///< requester's e^mal estimate
  double weight = 0.0;               ///< w_i used for this round's contract
};

struct RoundRecord {
  std::size_t round = 0;
  double requester_utility = 0.0;
  double total_compensation = 0.0;
  double weighted_feedback = 0.0;
};

struct SimResult {
  std::vector<RoundRecord> rounds;
  /// worker_history[w][t] — per-worker series.
  std::vector<std::vector<WorkerRound>> worker_history;
  double cumulative_requester_utility = 0.0;
  /// Set when run() stopped early at a round boundary; `rounds` then holds
  /// the completed prefix and the result is otherwise well-formed.
  bool cancelled = false;
  util::CancelReason cancel_reason = util::CancelReason::kNone;
};

/// Progress report of one step() call — the round-granular serving unit
/// (serve::Session drives a simulator one step per client request).
struct StepStatus {
  /// Rounds completed by this call (0 when the run was already finished
  /// or the token was cancelled before the first round).
  std::size_t completed_rounds = 0;
  /// Next round to run (== SimConfig::rounds once the run is complete).
  std::size_t next_round = 0;
  bool finished = false;
  bool cancelled = false;
  util::CancelReason cancel_reason = util::CancelReason::kNone;
  double cumulative_requester_utility = 0.0;
};

class StackelbergSimulator {
 public:
  StackelbergSimulator(std::vector<SimWorkerSpec> workers, SimConfig config);

  /// Restore a simulator mid-run from a checkpoint (see core/checkpoint.hpp).
  /// run() then continues from the checkpointed round and returns the FULL
  /// result — restored prefix plus continuation — bitwise-identical to an
  /// uninterrupted run of the same config.
  explicit StackelbergSimulator(const SimCheckpoint& checkpoint);

  // Out-of-line: ~unique_ptr<util::ThreadPool> needs the complete type.
  ~StackelbergSimulator();

  /// Simulate up to config.rounds, cooperatively honouring `cancel` (null
  /// runs to completion). Cancellation is polled once per round and between
  /// redesign sweeps; a cancelled run returns the completed prefix with
  /// SimResult::cancelled set and, when checkpoint_path is configured,
  /// writes a final checkpoint so the run can be resumed.
  SimResult run(const util::CancellationToken* cancel = nullptr);

  /// Advance at most `max_rounds` further rounds (bounded by the remaining
  /// config.rounds). The incremental unit under run() — N calls of step(1)
  /// leave the simulator in the state one run() of N rounds produces,
  /// bitwise; cancellation behaves as in run() but no final checkpoint is
  /// written (the caller owns the cadence via SimConfig::checkpoint_every,
  /// which still fires inside the loop).
  StepStatus step(std::size_t max_rounds,
                  const util::CancellationToken* cancel = nullptr);

  /// Complete dynamic state at the current round boundary — what
  /// core/checkpoint persists and what serve sessions snapshot.
  SimCheckpoint snapshot() const;

  std::size_t next_round() const { return next_round_; }
  bool finished() const { return next_round_ >= config_.rounds; }
  const SimConfig& config() const { return config_; }
  std::size_t worker_count() const { return workers_.size(); }
  /// Currently posted per-worker contracts (zero contracts before the
  /// first redesign round has run).
  const std::vector<contract::Contract>& contracts() const {
    return requester_.contracts();
  }
  /// Accumulated result prefix (completed rounds only).
  const SimResult& history() const { return history_; }

  /// Attach (or detach, with nullptr) the per-round hook. Not owned, not
  /// checkpointed — re-attach after restoring from a checkpoint.
  void set_round_hook(RoundHook* hook) { hook_ = hook; }

 private:
  void write_checkpoint() const;

  std::vector<SimWorkerSpec> workers_;
  SimConfig config_;

  // Dynamic state — everything a checkpoint must capture to make resume
  // bitwise-exact.
  std::size_t next_round_ = 0;
  util::Rng rng_;
  /// Estimates, posted contracts and the policy backend, whose object is
  /// rebuilt from config_.policy on construction and whose learner state
  /// SimCheckpoint::policy_state restores verbatim. Its ψ, β and partner
  /// beliefs are the worker specs' (not checkpointed: the specs are).
  Requester requester_;
  std::vector<double> last_feedback_;
  SimResult history_;

  // Redesign machinery (not checkpointed: the cache is a pure memo and the
  // pool only schedules; neither affects results).
  contract::DesignCache design_cache_;
  std::unique_ptr<util::ThreadPool> own_pool_;
  RoundHook* hook_ = nullptr;
};

/// The standard mixed fleet used by ccdctl simulate, the serve subsystem,
/// and the cross-surface bitwise-identity tests: `malicious` biased
/// workers (omega 0.6, accuracy distance 1.7) followed by honest ones.
std::vector<SimWorkerSpec> preset_fleet(std::size_t workers,
                                        std::size_t malicious);

}  // namespace ccd::core
