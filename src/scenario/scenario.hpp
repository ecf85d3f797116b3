// Adversarial scenario engine (ROADMAP item 5).
//
// The paper's own threat model (§III: NCM workers plus fixed collusion
// communities) is the narrowest interesting adversary. This module
// composes richer, config-driven adversary behaviours on top of the data
// generator and the StackelbergSimulator, so the designer can be scored
// systematically against them:
//
//  * Sybil swarms — many cheap identities sharing one effort curve and
//    one private target pool, pumping each other's feedback.
//  * Adaptive colluders — communities that re-target in response to the
//    previous round's contracts: every round they concentrate their
//    upvote boost on the member whose posted contract saturates highest.
//  * Strategic misreporters — biased workers that mask their accuracy
//    signal only when the Theorem 4.1 bound leaves slack between what the
//    posted contract can extract and what it guarantees, staying under
//    the suspicion threshold while the mask is profitable.
//  * Churned populations — Poisson worker arrival/departure windows, in
//    the spirit of non-stationary crowdsourcing markets.
//
// Everything is deterministic by construction: every behaviour draws only
// from the simulator's own checkpointed RNG (via core::RoundHook), so a
// scenario run is bitwise-reproducible from its seed, independent of
// thread count, and checkpoint/resume-safe. The hook itself is stateless
// across rounds — its per-round decisions are pure functions of the
// posted contracts and the requester's (checkpointed) estimates — so
// re-attaching a fresh hook after a resume reproduces the uninterrupted
// run exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "contract/contract.hpp"
#include "core/pipeline.hpp"
#include "core/stackelberg.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace ccd::scenario {

/// Designer policy a scenario is run against (the matrix's columns).
enum class Policy {
  kDynamic,  ///< the paper's method: BiP redesign every round
  kStatic,   ///< BiP designed once at round 0, never refreshed
  kFixed,    ///< flat fixed-payment contract for everyone, every round
  kExclude,  ///< dynamic + hard zero contract for suspected workers
  /// Model-free online learners (ccd::policy backends) scored under every
  /// adversary. They learn the contract space from scratch inside the
  /// cell's horizon, so their scores measure exploration robustness, not
  /// converged performance.
  kBandit,       ///< policy::ZoomingBanditPolicy (Ho–Slivkins–Vaughan)
  kPostedPrice,  ///< policy::PostedPricePolicy (Liu–Chen)
};

const char* to_string(Policy policy);
/// Throws ccd::ConfigError on an unknown name.
Policy policy_from_string(const std::string& name);
/// All matrix columns, in enum order.
std::vector<Policy> all_policies();

/// One adversarial scenario: a worker population plus the behaviours
/// layered on it. Parsed from key=value config (see from_params) and
/// runnable from ccdctl, the matrix harness, and the serve ingest path.
struct ScenarioSpec {
  std::string name = "paper";

  /// Population: `workers` total identities, `malicious` of them
  /// adversarial; `community_sizes` partitions part of the malicious
  /// budget into collusion communities (the rest are NCM workers).
  std::size_t workers = 16;
  std::size_t malicious = 6;
  std::vector<std::size_t> community_sizes{};

  /// Sybil swarm: this many extra cheap identities (appended on top of
  /// `workers`) sharing one effort curve and one target pool. 0 disables.
  std::size_t sybil = 0;
  /// Effort-cost coefficient of a sybil identity (cheap: < 1).
  double sybil_beta = 0.4;
  /// Mean mutual feedback boost per swarm partner per round.
  double sybil_boost = 0.8;

  /// Adaptive colluders: communities re-target every round, boosting the
  /// member whose posted contract saturates highest.
  bool adaptive = false;
  /// Mean feedback boost per partner for the targeted member.
  double adaptive_boost = 1.2;

  /// Strategic misreporters: NCM workers mask their accuracy signal on
  /// rounds where the posted contract's Theorem 4.1 bounds leave more
  /// than `misreport_slack` of headroom.
  bool misreport = false;
  double misreport_slack = 0.5;

  /// Poisson churn (0 = static population): arrival round ~
  /// Poisson(churn_arrival_mean), lifetime ~ 1 + Poisson(churn_lifetime_mean).
  double churn_arrival_mean = 0.0;
  double churn_lifetime_mean = 0.0;

  std::size_t rounds = 24;
  std::uint64_t seed = 99;
  core::RequesterConfig requester{};

  /// Knobs of the kFixed policy's flat contract.
  double fixed_payment = 4.0;
  double fixed_effort = 1.0;

  /// Total planted adversarial identities (malicious + sybil).
  std::size_t planted_malicious() const { return malicious + sybil; }

  /// Throws ccd::ConfigError — naming the offending values — on an
  /// inconsistent spec (community sizes overrunning the malicious budget,
  /// malicious budget overrunning the population, ...).
  void validate() const;

  /// Parse overrides from key=value config on top of this spec:
  ///   workers= malicious= communities=2,3 sybil= sybil_beta= sybil_boost=
  ///   adaptive=0/1 adaptive_boost= misreport=0/1 misreport_slack=
  ///   churn_arrival= churn_lifetime= rounds= seed= fixed_payment=
  ///   fixed_effort=
  void apply_params(const util::ParamMap& params);

  /// Named presets: "paper", "sybil", "adaptive", "misreport", "churn",
  /// "mixed". Throws ccd::ConfigError on an unknown name.
  static ScenarioSpec preset(const std::string& name);
  /// The full matrix row catalog (every preset, in canonical order).
  static std::vector<ScenarioSpec> matrix();
};

/// The simulator fleet a spec expands to, with the index sets the hook
/// needs. Built deterministically from the spec's seed (fleet layout:
/// NCM, then community members, then sybils, then honest workers).
struct Fleet {
  std::vector<core::SimWorkerSpec> workers;
  /// Member indices per planted community; the sybil swarm, when present,
  /// is the last entry.
  std::vector<std::vector<std::size_t>> communities;
  std::vector<std::size_t> sybils;
  /// Workers that strategically misreport (the NCM block) when the spec
  /// enables it.
  std::vector<std::size_t> misreporters;
  /// Ground-truth adversary flag per worker.
  std::vector<std::uint8_t> is_malicious;
};

Fleet build_fleet(const ScenarioSpec& spec);

/// Simulator configuration for one matrix cell (kStatic designs once by
/// stretching redesign_every to the horizon). `threads` and the
/// checkpoint knobs come from RunOptions.
struct RunOptions {
  std::size_t threads = 0;
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
};

core::SimConfig sim_config(const ScenarioSpec& spec, Policy policy,
                           const RunOptions& options = {});

/// The RoundHook implementing both the policy overrides (kFixed /
/// kExclude) and the adversary behaviours. All per-round decisions are
/// pure functions of the posted contracts and the requester's estimates,
/// and all draws come from the simulator's RNG — bitwise resume-safe as
/// long as the caller re-attaches a hook after restoring a checkpoint.
class ScenarioHook final : public core::RoundHook {
 public:
  ScenarioHook(const ScenarioSpec& spec, const Fleet& fleet, Policy policy);

  void on_contracts_posted(std::size_t round, bool redesigned,
                           std::vector<contract::Contract>& contracts,
                           const std::vector<double>& est_malicious,
                           util::Rng& rng) override;
  double adjust_feedback(std::size_t round, std::size_t worker,
                         double feedback, util::Rng& rng) override;
  double adjust_accuracy_sample(std::size_t round, std::size_t worker,
                                double sample, util::Rng& rng) override;

 private:
  ScenarioSpec spec_;
  const Fleet* fleet_;
  Policy policy_;
  contract::Contract fixed_contract_;
  /// community index (into fleet_->communities) per worker, or npos.
  std::vector<std::size_t> community_of_;
  /// Recomputed every round from the posted contracts.
  std::vector<std::size_t> boost_target_;   ///< per community
  std::vector<std::uint8_t> mask_now_;      ///< per worker
  std::vector<std::uint8_t> is_sybil_;      ///< per worker
  std::vector<std::uint8_t> misreports_;    ///< per worker
};

/// Scores of one scenario x policy cell.
struct ScenarioScore {
  // Offline (trace/pipeline) half: planted-adversary detection quality.
  double detector_precision = 0.0;
  double detector_recall = 0.0;
  /// Fraction of planted communities fully contained in one detected
  /// community.
  double community_recall = 0.0;
  std::size_t quarantined = 0;
  std::size_t excluded = 0;
  // Online (simulation) half.
  double requester_utility = 0.0;  ///< cumulative over the horizon
  double total_compensation = 0.0;
};

struct ScenarioCell {
  std::string scenario;
  Policy policy = Policy::kDynamic;
  ScenarioScore score;
};

/// Run one cell: generate the spec's trace (sybil swarm, churn windows)
/// through the offline pipeline, then the spec's fleet through the
/// simulator under `policy` with the scenario hook attached. Bitwise
/// deterministic in the spec's seed at any thread count.
ScenarioCell run_cell(const ScenarioSpec& spec, Policy policy,
                      const RunOptions& options = {});

struct MatrixResult {
  std::vector<ScenarioCell> cells;  ///< scenario-major, policy-minor

  /// Per-cell / per-row shape invariants. Returns human-readable
  /// violation messages (empty = all hold):
  ///  * every score is finite,
  ///  * detector recall >= `recall_floor` on planted adversaries,
  ///  * per scenario: dynamic utility >= fixed-contract utility.
  std::vector<std::string> violations(double recall_floor = 0.5) const;

  /// Machine-readable dump (the BENCH_scenarios.json payload).
  std::string to_json() const;
};

/// Run `specs` x all_policies(). The workhorse behind bench_scenarios,
/// ccdctl scenario all, and the matrix regression test.
MatrixResult run_matrix(const std::vector<ScenarioSpec>& specs,
                        const RunOptions& options = {});

/// Closed-loop observation generator for the serve ingest path: replays a
/// scenario's fleet against externally posted contracts, producing the
/// per-round (effort, feedback, accuracy_sample) rows an ingest session
/// consumes. Each active worker plays core::play_worker_round, the
/// simulator's own worker step (best response, noise, adversary
/// adjustments), with SimConfig's default noise and the feed's own seeded
/// RNG; churned-out workers yield zero rows. Two feeds with the same spec
/// produce identical rows — the reconciliation basis for the over-the-wire
/// scenario tests.
class IngestFeed {
 public:
  explicit IngestFeed(const ScenarioSpec& spec);

  struct Observation {
    double effort = 0.0;
    double feedback = 0.0;
    double accuracy_sample = 0.0;
  };

  std::size_t worker_count() const { return fleet_.workers.size(); }

  /// Observations for the next round given the currently posted
  /// contracts (size worker_count(), or empty for all-zero contracts).
  std::vector<Observation> round(
      const std::vector<contract::Contract>& contracts);

 private:
  ScenarioSpec spec_;
  Fleet fleet_;
  ScenarioHook hook_;
  util::Rng rng_;
  std::size_t next_round_ = 0;
};

}  // namespace ccd::scenario
