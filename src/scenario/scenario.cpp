#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "contract/bounds.hpp"
#include "data/generator.hpp"
#include "util/error.hpp"

namespace ccd::scenario {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::stringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    try {
      const long long value = std::stoll(token);
      if (value < 2) {
        throw ConfigError("community size '" + token + "' must be >= 2");
      }
      sizes.push_back(static_cast<std::size_t>(value));
    } catch (const std::invalid_argument&) {
      throw ConfigError("cannot parse community size '" + token + "'");
    } catch (const std::out_of_range&) {
      throw ConfigError("community size '" + token + "' out of range");
    }
  }
  return sizes;
}

core::PricingStrategy pipeline_strategy(Policy policy) {
  switch (policy) {
    case Policy::kFixed:
      return core::PricingStrategy::kFixedPayment;
    case Policy::kExclude:
      return core::PricingStrategy::kExcludeMalicious;
    case Policy::kDynamic:
    case Policy::kStatic:
    case Policy::kBandit:
    case Policy::kPostedPrice:
      // The learners replace only the *designer*; the offline detection
      // half (the matrix's precision/recall columns) is policy-agnostic.
      return core::PricingStrategy::kDynamicContract;
  }
  return core::PricingStrategy::kDynamicContract;
}

}  // namespace

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kDynamic:
      return "dynamic";
    case Policy::kStatic:
      return "static";
    case Policy::kFixed:
      return "fixed";
    case Policy::kExclude:
      return "exclude";
    case Policy::kBandit:
      return "bandit";
    case Policy::kPostedPrice:
      return "posted";
  }
  return "?";
}

Policy policy_from_string(const std::string& name) {
  if (name == "dynamic") return Policy::kDynamic;
  if (name == "static") return Policy::kStatic;
  if (name == "fixed") return Policy::kFixed;
  if (name == "exclude") return Policy::kExclude;
  if (name == "bandit") return Policy::kBandit;
  if (name == "posted") return Policy::kPostedPrice;
  throw ConfigError("unknown policy '" + name +
                    "' (expected dynamic|static|fixed|exclude|bandit|posted)");
}

std::vector<Policy> all_policies() {
  return {Policy::kDynamic, Policy::kStatic,      Policy::kFixed,
          Policy::kExclude, Policy::kBandit, Policy::kPostedPrice};
}

void ScenarioSpec::validate() const {
  std::size_t planted = 0;
  for (const std::size_t size : community_sizes) planted += size;
  if (planted > malicious) {
    std::string sizes;
    for (std::size_t i = 0; i < community_sizes.size(); ++i) {
      if (i > 0) sizes += ',';
      sizes += std::to_string(community_sizes[i]);
    }
    throw ConfigError("scenario '" + name + "': community_sizes [" + sizes +
                      "] plant " + std::to_string(planted) +
                      " workers but the malicious budget is only " +
                      std::to_string(malicious));
  }
  if (malicious >= workers) {
    throw ConfigError("scenario '" + name + "': malicious budget " +
                      std::to_string(malicious) +
                      " leaves no honest workers in a population of " +
                      std::to_string(workers));
  }
  for (const std::size_t size : community_sizes) {
    if (size < 2) {
      throw ConfigError("scenario '" + name +
                        "': a community needs >= 2 workers");
    }
  }
  if (sybil == 1) {
    throw ConfigError("scenario '" + name +
                      "': a sybil swarm needs >= 2 identities");
  }
  require_config(sybil_beta > 0.0, "sybil_beta must be > 0");
  require_config(sybil_boost >= 0.0, "sybil_boost must be >= 0");
  require_config(adaptive_boost >= 0.0, "adaptive_boost must be >= 0");
  require_config(misreport_slack >= 0.0, "misreport_slack must be >= 0");
  require_config(churn_arrival_mean >= 0.0, "churn_arrival_mean must be >= 0");
  require_config(churn_lifetime_mean >= 0.0,
                 "churn_lifetime_mean must be >= 0");
  require_config(rounds >= 1, "scenario needs at least one round");
  require_config(fixed_payment >= 0.0, "fixed_payment must be >= 0");
  require_config(fixed_effort > 0.0, "fixed_effort must be > 0");
  requester.validate();
}

void ScenarioSpec::apply_params(const util::ParamMap& params) {
  workers = static_cast<std::size_t>(
      params.get_int("workers", static_cast<long long>(workers)));
  malicious = static_cast<std::size_t>(
      params.get_int("malicious", static_cast<long long>(malicious)));
  if (params.contains("communities")) {
    community_sizes = parse_sizes(params.get_string("communities", ""));
  }
  sybil = static_cast<std::size_t>(
      params.get_int("sybil", static_cast<long long>(sybil)));
  sybil_beta = params.get_double("sybil_beta", sybil_beta);
  sybil_boost = params.get_double("sybil_boost", sybil_boost);
  adaptive = params.get_bool("adaptive", adaptive);
  adaptive_boost = params.get_double("adaptive_boost", adaptive_boost);
  misreport = params.get_bool("misreport", misreport);
  misreport_slack = params.get_double("misreport_slack", misreport_slack);
  churn_arrival_mean = params.get_double("churn_arrival", churn_arrival_mean);
  churn_lifetime_mean = params.get_double("churn_lifetime", churn_lifetime_mean);
  rounds = static_cast<std::size_t>(
      params.get_int("rounds", static_cast<long long>(rounds)));
  seed = static_cast<std::uint64_t>(
      params.get_int("seed", static_cast<long long>(seed)));
  fixed_payment = params.get_double("fixed_payment", fixed_payment);
  fixed_effort = params.get_double("fixed_effort", fixed_effort);
  validate();
}

ScenarioSpec ScenarioSpec::preset(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.workers = 40;
  spec.malicious = 10;
  spec.community_sizes = {2, 3};
  if (name == "paper") {
    // The paper's own threat model: NCM workers + fixed communities.
  } else if (name == "sybil") {
    spec.sybil = 4;
  } else if (name == "adaptive") {
    spec.adaptive = true;
  } else if (name == "misreport") {
    spec.misreport = true;
  } else if (name == "churn") {
    spec.churn_arrival_mean = 4.0;
    spec.churn_lifetime_mean = 12.0;
  } else if (name == "mixed") {
    spec.sybil = 4;
    spec.adaptive = true;
    spec.misreport = true;
    spec.churn_arrival_mean = 3.0;
    spec.churn_lifetime_mean = 14.0;
  } else {
    throw ConfigError(
        "unknown scenario '" + name +
        "' (expected paper|sybil|adaptive|misreport|churn|mixed)");
  }
  spec.validate();
  return spec;
}

std::vector<ScenarioSpec> ScenarioSpec::matrix() {
  std::vector<ScenarioSpec> specs;
  for (const char* name :
       {"paper", "sybil", "adaptive", "misreport", "churn", "mixed"}) {
    specs.push_back(preset(name));
  }
  return specs;
}

Fleet build_fleet(const ScenarioSpec& spec) {
  spec.validate();
  Fleet fleet;
  std::size_t planted = 0;
  for (const std::size_t size : spec.community_sizes) planted += size;
  const std::size_t n_ncm = spec.malicious - planted;
  const std::size_t n_honest = spec.workers - spec.malicious;
  const std::size_t total = spec.workers + spec.sybil;
  fleet.workers.reserve(total);
  fleet.is_malicious.assign(total, 0);

  const auto add = [&](const char* prefix, std::size_t ordinal) {
    core::SimWorkerSpec w;
    w.name = std::string(prefix) + std::to_string(ordinal);
    fleet.workers.push_back(w);
    return fleet.workers.size() - 1;
  };

  for (std::size_t i = 0; i < n_ncm; ++i) {
    const std::size_t idx = add("ncm", i);
    fleet.workers[idx].omega = 0.6;
    fleet.workers[idx].accuracy_distance = 1.7;
    fleet.is_malicious[idx] = 1;
    if (spec.misreport) fleet.misreporters.push_back(idx);
  }
  for (std::size_t c = 0; c < spec.community_sizes.size(); ++c) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < spec.community_sizes[c]; ++i) {
      const std::size_t idx = add("cm", fleet.workers.size());
      fleet.workers[idx].omega = 0.6;
      fleet.workers[idx].accuracy_distance = 1.7;
      fleet.workers[idx].partners = spec.community_sizes[c] - 1;
      fleet.is_malicious[idx] = 1;
      members.push_back(idx);
    }
    fleet.communities.push_back(std::move(members));
  }
  if (spec.sybil > 0) {
    std::vector<std::size_t> swarm;
    for (std::size_t i = 0; i < spec.sybil; ++i) {
      const std::size_t idx = add("sybil", i);
      fleet.workers[idx].beta = spec.sybil_beta;
      fleet.workers[idx].omega = 0.6;
      fleet.workers[idx].accuracy_distance = 1.7;
      fleet.workers[idx].partners = spec.sybil - 1;
      fleet.is_malicious[idx] = 1;
      fleet.sybils.push_back(idx);
      swarm.push_back(idx);
    }
    fleet.communities.push_back(std::move(swarm));
  }
  for (std::size_t i = 0; i < n_honest; ++i) add("honest", i);

  // Churn windows, drawn deterministically from the spec's seed (one
  // arrival + one lifetime per worker, in fleet order).
  if (spec.churn_arrival_mean > 0.0 || spec.churn_lifetime_mean > 0.0) {
    util::Rng rng(spec.seed);
    for (core::SimWorkerSpec& w : fleet.workers) {
      const std::uint64_t arrival = std::min<std::uint64_t>(
          rng.poisson(spec.churn_arrival_mean), spec.rounds - 1);
      const std::uint64_t lifetime = 1 + rng.poisson(spec.churn_lifetime_mean);
      w.arrive_round = static_cast<std::size_t>(arrival);
      const std::uint64_t depart = arrival + lifetime;
      if (depart < spec.rounds) {
        w.depart_round = static_cast<std::size_t>(depart);
      }
    }
  }
  return fleet;
}

core::SimConfig sim_config(const ScenarioSpec& spec, Policy policy,
                           const RunOptions& options) {
  core::SimConfig config;
  config.rounds = spec.rounds;
  config.requester = spec.requester;
  config.redesign_every = policy == Policy::kStatic ? spec.rounds : 1;
  if (policy == Policy::kBandit) {
    config.policy.kind = ccd::policy::Kind::kZoomingBandit;
  } else if (policy == Policy::kPostedPrice) {
    config.policy.kind = ccd::policy::Kind::kPostedPrice;
  }
  config.seed = spec.seed;
  config.threads = options.threads;
  config.checkpoint_every = options.checkpoint_every;
  config.checkpoint_path = options.checkpoint_path;
  return config;
}

ScenarioHook::ScenarioHook(const ScenarioSpec& spec, const Fleet& fleet,
                           Policy policy)
    : spec_(spec), fleet_(&fleet), policy_(policy) {
  fixed_contract_ = contract::Contract::on_effort_grid(
      effort::QuadraticEffort(-1.0, 8.0, 2.0), spec_.fixed_effort,
      {0.0, spec_.fixed_payment});
  const std::size_t n = fleet.workers.size();
  community_of_.assign(n, kNone);
  for (std::size_t c = 0; c < fleet.communities.size(); ++c) {
    for (const std::size_t member : fleet.communities[c]) {
      community_of_[member] = c;
    }
  }
  boost_target_.assign(fleet.communities.size(), kNone);
  mask_now_.assign(n, 0);
  is_sybil_.assign(n, 0);
  for (const std::size_t idx : fleet.sybils) is_sybil_[idx] = 1;
  misreports_.assign(n, 0);
  for (const std::size_t idx : fleet.misreporters) misreports_[idx] = 1;
}

void ScenarioHook::on_contracts_posted(
    std::size_t /*round*/, bool /*redesigned*/,
    std::vector<contract::Contract>& contracts,
    const std::vector<double>& est_malicious, util::Rng& /*rng*/) {
  const std::size_t n = contracts.size();

  // Policy overrides first, so the adversaries below react to what the
  // workers will actually face.
  if (policy_ == Policy::kFixed) {
    for (std::size_t i = 0; i < n; ++i) contracts[i] = fixed_contract_;
  } else if (policy_ == Policy::kExclude) {
    for (std::size_t i = 0; i < n; ++i) {
      if (est_malicious[i] >= 0.5) contracts[i] = contract::Contract{};
    }
  }

  // Adaptive colluders: each community concentrates its boost on the
  // member whose posted contract saturates highest. The sybil swarm
  // (always the last community) keeps its own mutual-boost behaviour.
  if (spec_.adaptive) {
    const std::size_t adaptive_communities = spec_.community_sizes.size();
    for (std::size_t c = 0; c < adaptive_communities; ++c) {
      std::size_t best = kNone;
      double best_pay = -1.0;
      for (const std::size_t member : fleet_->communities[c]) {
        const double pay = contracts[member].max_payment();
        if (pay > best_pay) {
          best_pay = pay;
          best = member;
        }
      }
      boost_target_[c] = best;
    }
  }

  // Strategic misreporters: mask only on rounds where the posted
  // contract's Theorem 4.1 bounds leave more headroom than the configured
  // slack — the requester cannot tell a masked round from bound noise.
  for (std::size_t i = 0; i < n; ++i) {
    if (misreports_[i] == 0) continue;
    const contract::Contract& c = contracts[i];
    if (c.is_zero()) {
      mask_now_[i] = 0;
      continue;
    }
    const core::SimWorkerSpec& w = fleet_->workers[i];
    const double upper = contract::theorem41_upper_bound(
        w.psi, 1.0, spec_.requester.mu, w.beta, c.delta(), c.intervals(),
        w.omega);
    const double lower = contract::theorem41_lower_bound(
        w.psi, 1.0, spec_.requester.mu, w.beta, c.delta(), c.intervals());
    mask_now_[i] = (upper - lower > spec_.misreport_slack) ? 1 : 0;
  }
}

double ScenarioHook::adjust_feedback(std::size_t /*round*/, std::size_t worker,
                                     double feedback, util::Rng& rng) {
  const core::SimWorkerSpec& w = fleet_->workers[worker];
  if (is_sybil_[worker] != 0 && w.partners > 0) {
    feedback += static_cast<double>(
        rng.poisson(spec_.sybil_boost * static_cast<double>(w.partners)));
  }
  if (spec_.adaptive) {
    const std::size_t c = community_of_[worker];
    if (c != kNone && c < boost_target_.size() && boost_target_[c] == worker &&
        w.partners > 0) {
      feedback += static_cast<double>(
          rng.poisson(spec_.adaptive_boost * static_cast<double>(w.partners)));
    }
  }
  return feedback;
}

double ScenarioHook::adjust_accuracy_sample(std::size_t /*round*/,
                                            std::size_t worker, double sample,
                                            util::Rng& /*rng*/) {
  if (misreports_[worker] != 0 && mask_now_[worker] != 0) {
    // The mask shrinks the observable score deviation toward honest
    // levels; no extra RNG draw, so masked and unmasked rounds consume
    // the same number of random values.
    sample *= 0.25;
  }
  return sample;
}

ScenarioCell run_cell(const ScenarioSpec& spec, Policy policy,
                      const RunOptions& options) {
  spec.validate();
  ScenarioCell cell;
  cell.scenario = spec.name;
  cell.policy = policy;

  // --- Offline half: planted trace through the detection pipeline -------
  data::GeneratorParams params = data::GeneratorParams::from_population(
      spec.workers, spec.malicious, spec.community_sizes, spec.seed);
  params.n_sybil = spec.sybil;
  if (spec.churn_arrival_mean > 0.0 || spec.churn_lifetime_mean > 0.0) {
    params.campaign_rounds = spec.rounds;
    params.churn_arrival_mean = spec.churn_arrival_mean;
    params.churn_lifetime_mean = spec.churn_lifetime_mean;
  }
  const data::ReviewTrace trace = data::generate_trace(params);

  core::PipelineConfig pipeline;
  pipeline.requester = spec.requester;
  pipeline.strategy = pipeline_strategy(policy);
  pipeline.fixed_payment = spec.fixed_payment;
  pipeline.fixed_threshold_effort = spec.fixed_effort;
  pipeline.threads = options.threads;
  const core::PipelineResult offline = core::run_pipeline(trace, pipeline);

  cell.score.detector_precision = offline.detector_quality.precision();
  cell.score.detector_recall = offline.detector_quality.recall();
  cell.score.quarantined = offline.health.quarantined_workers;
  cell.score.excluded = offline.excluded_workers;

  // Community recall: a planted community counts as recovered when all
  // of its members land in one detected community.
  std::vector<std::vector<data::WorkerId>> planted;
  for (const data::Worker& w : trace.workers()) {
    if (w.true_community < 0) continue;
    const auto c = static_cast<std::size_t>(w.true_community);
    if (planted.size() <= c) planted.resize(c + 1);
    planted[c].push_back(w.id);
  }
  std::size_t recovered = 0;
  for (const std::vector<data::WorkerId>& members : planted) {
    bool found = false;
    for (const detect::Community& detected : offline.collusion.communities) {
      const std::set<data::WorkerId> pool(detected.members.begin(),
                                          detected.members.end());
      bool all = true;
      for (const data::WorkerId id : members) {
        if (pool.count(id) == 0) {
          all = false;
          break;
        }
      }
      if (all) {
        found = true;
        break;
      }
    }
    if (found) ++recovered;
  }
  cell.score.community_recall =
      planted.empty() ? 1.0
                      : static_cast<double>(recovered) /
                            static_cast<double>(planted.size());

  // --- Online half: the fleet through the simulator under `policy` ------
  const Fleet fleet = build_fleet(spec);
  ScenarioHook hook(spec, fleet, policy);
  core::StackelbergSimulator sim(fleet.workers, sim_config(spec, policy, options));
  sim.set_round_hook(&hook);
  const core::SimResult result = sim.run();
  cell.score.requester_utility = result.cumulative_requester_utility;
  for (const core::RoundRecord& record : result.rounds) {
    cell.score.total_compensation += record.total_compensation;
  }
  return cell;
}

MatrixResult run_matrix(const std::vector<ScenarioSpec>& specs,
                        const RunOptions& options) {
  MatrixResult result;
  for (const ScenarioSpec& spec : specs) {
    for (const Policy policy : all_policies()) {
      result.cells.push_back(run_cell(spec, policy, options));
    }
  }
  return result;
}

std::vector<std::string> MatrixResult::violations(double recall_floor) const {
  std::vector<std::string> out;
  const auto finite = [](double v) { return std::isfinite(v); };
  for (const ScenarioCell& cell : cells) {
    const std::string where =
        cell.scenario + "/" + to_string(cell.policy);
    if (!finite(cell.score.requester_utility) ||
        !finite(cell.score.total_compensation) ||
        !finite(cell.score.detector_precision) ||
        !finite(cell.score.detector_recall) ||
        !finite(cell.score.community_recall)) {
      out.push_back(where + ": non-finite score");
    }
    if (cell.score.detector_recall < recall_floor) {
      out.push_back(where + ": detector recall " +
                    std::to_string(cell.score.detector_recall) +
                    " below floor " + std::to_string(recall_floor));
    }
  }
  // Per scenario: the paper's dynamic designer must beat the flat
  // fixed-payment contract under every adversary.
  std::vector<std::string> scenarios;
  for (const ScenarioCell& cell : cells) {
    if (std::find(scenarios.begin(), scenarios.end(), cell.scenario) ==
        scenarios.end()) {
      scenarios.push_back(cell.scenario);
    }
  }
  for (const std::string& scenario : scenarios) {
    double dynamic_utility = 0.0;
    double fixed_utility = 0.0;
    bool have_dynamic = false;
    bool have_fixed = false;
    for (const ScenarioCell& cell : cells) {
      if (cell.scenario != scenario) continue;
      if (cell.policy == Policy::kDynamic) {
        dynamic_utility = cell.score.requester_utility;
        have_dynamic = true;
      } else if (cell.policy == Policy::kFixed) {
        fixed_utility = cell.score.requester_utility;
        have_fixed = true;
      }
    }
    if (have_dynamic && have_fixed &&
        dynamic_utility < fixed_utility - 1e-9) {
      out.push_back(scenario + ": dynamic utility " +
                    std::to_string(dynamic_utility) +
                    " below fixed-contract baseline " +
                    std::to_string(fixed_utility));
    }

    // The learner columns (bandit/posted) inherit the same >=-fixed
    // ordering invariant unless a cell is explicitly waived below. A
    // from-scratch learner spends a large share of a 24-round horizon
    // exploring, so cells where exploration provably cannot amortize
    // against the flat baseline inside the horizon are waived per-cell —
    // each waiver names the cell; regret convergence for these backends
    // is gated separately (and over a 2000+-round horizon) by
    // bench_policy_regret.
    struct Waiver {
      const char* scenario;
      Policy policy;
    };
    // The zooming bandit clears the fixed baseline in every preset (its
    // adaptive discretization finds a paying arm within a handful of
    // rounds), so kBandit is enforced in all 6 scenarios. The posted-price
    // learner is waived in all 6: its price ladder starts at payment_cap /
    // price_levels and climbs one elimination batch at a time, so over a
    // 24-round horizon it never reaches the payment level that beats a
    // flat 4.0-per-round contract — by design it trades early revenue for
    // incentive-compatible elicitation (Liu–Chen), which only pays off at
    // bench_policy_regret's 2000+-round horizons.
    static constexpr Waiver kWaivedCells[] = {
        {"paper", Policy::kPostedPrice},
        {"sybil", Policy::kPostedPrice},
        {"adaptive", Policy::kPostedPrice},
        {"misreport", Policy::kPostedPrice},
        {"churn", Policy::kPostedPrice},
        {"mixed", Policy::kPostedPrice},
    };
    for (const Policy learner : {Policy::kBandit, Policy::kPostedPrice}) {
      bool waived = false;
      for (const Waiver& waiver : kWaivedCells) {
        if (scenario == waiver.scenario && learner == waiver.policy) {
          waived = true;
          break;
        }
      }
      if (waived) continue;
      bool have_learner = false;
      double learner_utility = 0.0;
      for (const ScenarioCell& cell : cells) {
        if (cell.scenario == scenario && cell.policy == learner) {
          learner_utility = cell.score.requester_utility;
          have_learner = true;
        }
      }
      if (have_learner && have_fixed &&
          learner_utility < fixed_utility - 1e-9) {
        out.push_back(scenario + ": " + to_string(learner) + " utility " +
                      std::to_string(learner_utility) +
                      " below fixed-contract baseline " +
                      std::to_string(fixed_utility));
      }
    }
  }
  return out;
}

std::string MatrixResult::to_json() const {
  std::string json = "{\n  \"bench\": \"scenarios\",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioCell& cell = cells[i];
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"scenario\": \"%s\", \"policy\": \"%s\", "
        "\"requester_utility\": %.6f, \"total_compensation\": %.6f, "
        "\"detector_precision\": %.6f, \"detector_recall\": %.6f, "
        "\"community_recall\": %.6f, \"quarantined\": %zu, "
        "\"excluded\": %zu}%s\n",
        cell.scenario.c_str(), to_string(cell.policy),
        cell.score.requester_utility, cell.score.total_compensation,
        cell.score.detector_precision, cell.score.detector_recall,
        cell.score.community_recall, cell.score.quarantined,
        cell.score.excluded, i + 1 < cells.size() ? "," : "");
    json += row;
  }
  json += "  ]\n}\n";
  return json;
}

IngestFeed::IngestFeed(const ScenarioSpec& spec)
    : spec_(spec),
      fleet_(build_fleet(spec)),
      hook_(spec_, fleet_, Policy::kDynamic),
      rng_(spec.seed) {}

std::vector<IngestFeed::Observation> IngestFeed::round(
    const std::vector<contract::Contract>& contracts) {
  const std::size_t n = fleet_.workers.size();
  std::vector<contract::Contract> posted =
      contracts.empty() ? std::vector<contract::Contract>(n) : contracts;
  CCD_CHECK_MSG(posted.size() == n,
                "IngestFeed::round: got " << posted.size()
                                          << " contracts for " << n
                                          << " workers");
  const std::vector<double> est_malicious(n, 0.0);
  hook_.on_contracts_posted(next_round_, true, posted, est_malicious, rng_);

  const core::SimConfig defaults;
  std::vector<Observation> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::SimWorkerSpec& w = fleet_.workers[i];
    if (!w.active_at(next_round_)) continue;  // churned out: zero row
    const core::WorkerPlay play = core::play_worker_round(
        w, i, next_round_, posted[i], defaults.feedback_noise,
        defaults.accuracy_noise, &hook_, rng_);
    out[i] = Observation{play.effort, play.feedback, play.accuracy_sample};
  }
  ++next_round_;
  return out;
}

}  // namespace ccd::scenario
