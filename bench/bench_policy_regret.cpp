// Regret harness for the ccd::policy contract-designer backends.
//
// Each backend — the paper's BiP (known worker model), the zooming bandit
// (Ho–Slivkins–Vaughan style adaptive discretization), and the posted-price
// learner (Liu–Chen style sequential price elicitation) — drives the same
// mixed fleet for `rounds` rounds against exact worker best responses. The
// per-round reference is the memoized fine-grid oracle
// (contract::OracleCache): the best utility any incentive-compatible
// payment rule could extract from each worker. Cumulative regret is the
// summed per-round gap to that oracle.
//
// Two invariants are asserted (exit 1 on violation):
//  * Sublinear learner regret — each learner's average per-round regret
//    over the last quarter of the horizon must fall below
//    `sublinear_factor` x its first-quarter average (a linear-regret
//    learner holds the ratio at 1).
//  * BiP dominance with a known model — BiP's cumulative regret must not
//    exceed either learner's: learning the model from scratch can never
//    beat solving it exactly.
//
// Like bench_throughput, this binary refuses to publish numbers from
// non-Release builds (exit 3); `force=1` overrides for local poking and
// the JSON still records the real build type.
//
// Exit codes: 0 gates passed, 1 gate failed, 2 bad usage, 3 non-release.
//
// Usage: bench_policy_regret [rounds=2400] [workers=12]
//                            [sublinear_factor=0.8]
//                            [out=BENCH_policy_regret.json] [force=0]
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "contract/baselines.hpp"
#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "contract/worker_response.hpp"
#include "policy/policy.hpp"
#include "util/rng.hpp"
#include "release_gate.hpp"
#include "bench_main.hpp"

namespace {

using namespace ccd;

/// The mixed fleet every backend faces: honest, NCM, and community-fit
/// effort curves cycled over `n` workers, all with unit weight (the regret
/// question is about the contract space, not the weighting scheme).
std::vector<contract::SubproblemSpec> fleet_specs(std::size_t n) {
  const struct {
    double r2, r1, r0, beta, omega;
  } classes[] = {
      {-1.0, 8.0, 2.0, 1.0, 0.0},   // honest
      {-0.8, 6.0, 1.5, 1.1, 0.3},   // non-collusive malicious
      {-1.2, 9.0, 2.5, 0.9, 0.5},   // collusive community fit
      {-0.9, 7.0, 1.0, 1.2, 0.2},   // a second community fit
  };
  std::vector<contract::SubproblemSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cls = classes[i % (sizeof(classes) / sizeof(classes[0]))];
    contract::SubproblemSpec spec;
    spec.psi = effort::QuadraticEffort(cls.r2, cls.r1, cls.r0);
    spec.incentives = {cls.beta, cls.omega};
    spec.weight = 1.0;
    spec.mu = 1.0;
    spec.intervals = 20;
    specs.push_back(spec);
  }
  return specs;
}

struct BackendRun {
  std::string name;
  double cumulative_regret = 0.0;
  double early_avg_regret = 0.0;  ///< mean per-round regret, first quarter
  double late_avg_regret = 0.0;   ///< mean per-round regret, last quarter
  /// Cumulative regret sampled every rounds/24 rounds (for the figure).
  std::vector<double> samples;
};

BackendRun run_backend(policy::Kind kind,
                       const std::vector<contract::SubproblemSpec>& specs,
                       std::size_t rounds, double oracle_per_round,
                       contract::DesignCache& cache) {
  const std::size_t n = specs.size();
  std::vector<policy::WorkerView> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    views[i].psi = specs[i].psi;
    views[i].beta = specs[i].incentives.beta;
    views[i].omega = specs[i].incentives.omega;
    views[i].weight = specs[i].weight;
    views[i].mu = specs[i].mu;
    views[i].intervals = specs[i].intervals;
  }

  policy::PolicyConfig config;
  config.kind = kind;
  const std::unique_ptr<policy::Policy> backend = policy::make_policy(config);
  util::Rng rng(2024);

  BackendRun run;
  run.name = policy::to_string(kind);
  const std::size_t window = rounds / 4;
  const std::size_t sample_every =
      rounds >= 24 ? rounds / 24 : std::size_t{1};
  std::vector<contract::Contract> contracts(n);
  std::vector<policy::RoundOutcome> outcomes(n);
  for (std::size_t t = 0; t < rounds; ++t) {
    policy::PostEnv env;
    env.cache = &cache;
    backend->post(t, true, views, contracts, rng, env);
    double round_utility = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const contract::BestResponse response = contract::best_response(
          contracts[i], views[i].psi,
          {views[i].beta, views[i].omega});
      outcomes[i].active = true;
      outcomes[i].feedback = response.feedback;
      outcomes[i].reward = views[i].weight * response.feedback -
                           views[i].mu * response.compensation;
      round_utility += outcomes[i].reward;
    }
    backend->observe(t, outcomes, rng);
    const double regret = oracle_per_round - round_utility;
    run.cumulative_regret += regret;
    if (t < window) run.early_avg_regret += regret;
    if (t >= rounds - window) run.late_avg_regret += regret;
    if ((t + 1) % sample_every == 0 || t + 1 == rounds) {
      run.samples.push_back(run.cumulative_regret);
    }
  }
  run.early_avg_regret /= static_cast<double>(window);
  run.late_avg_regret /= static_cast<double>(window);
  return run;
}

void write_json(const std::string& path, std::size_t rounds,
                std::size_t workers, double oracle_per_round,
                double sublinear_factor,
                const std::vector<BackendRun>& runs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_policy_regret: cannot write %s\n",
                 path.c_str());
    return;
  }
  char buf[64];
  out << "{\n  \"bench\": \"policy_regret\",\n";
  out << "  \"library_build_type\": \"" << bench::library_build_type()
      << "\",\n";
  out << "  \"rounds\": " << rounds << ",\n";
  out << "  \"workers\": " << workers << ",\n";
  std::snprintf(buf, sizeof(buf), "%.6f", oracle_per_round);
  out << "  \"oracle_per_round_utility\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", sublinear_factor);
  out << "  \"sublinear_factor\": " << buf << ",\n";
  out << "  \"backends\": [\n";
  for (std::size_t b = 0; b < runs.size(); ++b) {
    const BackendRun& run = runs[b];
    out << "    {\n      \"policy\": \"" << run.name << "\",\n";
    std::snprintf(buf, sizeof(buf), "%.6f", run.cumulative_regret);
    out << "      \"cumulative_regret\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.6f", run.early_avg_regret);
    out << "      \"early_avg_regret\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.6f", run.late_avg_regret);
    out << "      \"late_avg_regret\": " << buf << ",\n";
    out << "      \"cumulative_regret_samples\": [";
    for (std::size_t s = 0; s < run.samples.size(); ++s) {
      std::snprintf(buf, sizeof(buf), "%.4f", run.samples[s]);
      out << (s > 0 ? ", " : "") << buf;
    }
    out << "]\n    }" << (b + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int run(int argc, char** argv) {
  std::size_t rounds = 2400;
  std::size_t workers = 12;
  double sublinear_factor = 0.8;
  std::string out = "BENCH_policy_regret.json";
  bool force = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bench_policy_regret: bad argument '%s'\n",
                   arg.c_str());
      return 2;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "rounds") rounds = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "workers") {
      workers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "sublinear_factor") {
      sublinear_factor = std::strtod(value.c_str(), nullptr);
    } else if (key == "out") out = value;
    else if (key == "force") force = value != "0";
    else {
      std::fprintf(stderr, "bench_policy_regret: unknown key '%s'\n",
                   key.c_str());
      return 2;
    }
  }
  if (rounds < 8 || workers < 1) {
    std::fprintf(stderr,
                 "bench_policy_regret: need rounds >= 8 and workers >= 1\n");
    return 2;
  }
  if (!bench::release_gate("bench_policy_regret", force)) {
    return bench::kNonReleaseExit;
  }

  const std::vector<contract::SubproblemSpec> specs = fleet_specs(workers);

  // The per-round reference: the memoized fine-grid oracle. One grid sweep
  // per distinct worker class, however long the horizon.
  contract::OracleCache oracle;
  double oracle_per_round = 0.0;
  for (const contract::SubproblemSpec& spec : specs) {
    oracle_per_round += oracle.optimal(spec).requester_utility;
  }
  std::printf("fleet: %zu worker(s), oracle %.3f utility/round "
              "(%zu distinct oracle subproblem(s))\n",
              workers, oracle_per_round, oracle.size());

  contract::DesignCache cache;
  std::vector<BackendRun> runs;
  for (const policy::Kind kind :
       {policy::Kind::kBip, policy::Kind::kZoomingBandit,
        policy::Kind::kPostedPrice}) {
    runs.push_back(run_backend(kind, specs, rounds, oracle_per_round, cache));
    const BackendRun& run = runs.back();
    std::printf("%-8s cumulative regret %12.3f | per-round avg: first "
                "quarter %8.4f -> last quarter %8.4f\n",
                run.name.c_str(), run.cumulative_regret, run.early_avg_regret,
                run.late_avg_regret);
  }

  write_json(out, rounds, workers, oracle_per_round, sublinear_factor, runs);

  bool ok = true;
  const BackendRun& bip = runs[0];
  for (std::size_t b = 1; b < runs.size(); ++b) {
    const BackendRun& learner = runs[b];
    if (!(learner.late_avg_regret <=
          sublinear_factor * learner.early_avg_regret)) {
      std::fprintf(stderr,
                   "GATE FAILED: %s regret is not sublinear (last-quarter "
                   "avg %.4f > %.2f x first-quarter avg %.4f)\n",
                   learner.name.c_str(), learner.late_avg_regret,
                   sublinear_factor, learner.early_avg_regret);
      ok = false;
    }
    if (!(bip.cumulative_regret <= learner.cumulative_regret + 1e-9)) {
      std::fprintf(stderr,
                   "GATE FAILED: bip cumulative regret %.3f exceeds %s's "
                   "%.3f — the known-model baseline must dominate\n",
                   bip.cumulative_regret, learner.name.c_str(),
                   learner.cumulative_regret);
      ok = false;
    }
  }
  if (ok) {
    std::printf("gates passed: learner regret sublinear (factor %.2f), bip "
                "dominates both learners\n",
                sublinear_factor);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_policy_regret", run, argc, argv);
}
