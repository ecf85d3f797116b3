// ccdctl — command-line front end to the libccd pipeline.
//
//   ccdctl generate out=<prefix> [preset=small|medium|full] [seed=N]
//       Generate a synthetic review trace and save it as CSV.
//
//   ccdctl inspect trace=<prefix> [threshold=0.5]
//       Dataset statistics, expert coverage, detector quality, and the
//       collusive-community census for a saved trace.
//
//   ccdctl design trace=<prefix>|preset=small|medium|full [mu=1.0]
//          [strategy=dynamic|exclude|fixed] [seed=N]
//          [policy=failfast|quarantine|fallback|bip|bandit|posted]
//          [lenient_load=0|1]
//          [fault_rate=0.0] [fault_seed=0] [out=<contracts.csv>]
//       Run the full contract-design pipeline and (optionally) export the
//       per-worker contracts. `preset` generates the bundled example trace
//       in memory instead of loading CSVs. `policy` selects either the
//       per-stage degradation mode (failfast|quarantine|fallback) or a
//       contract-designer backend (bip|bandit|posted: bandit/posted replay
//       the solved subproblems through the selected online learner and
//       report how much of the designed utility it recovers from scratch),
//       `lenient_load` routes dirty CSVs through the sanitizer, and
//       fault_rate/fault_seed arm the deterministic fault injector (chaos
//       drills). A final `wall time` line splits the command's time into
//       trace generate-or-load, the pipeline stages, and the audit.
//
//   ccdctl simulate [rounds=40] [workers=6] [malicious=2] [seed=1]
//          [policy=bip|bandit|posted] [deadline=SECONDS] [checkpoint=FILE]
//          [checkpoint_every=N] [resume=FILE] [threads=N]
//       Multi-round Stackelberg simulation with a mixed fleet. `policy`
//       selects the contract-designer backend (the paper's BiP, or an
//       online learner — see src/policy); it is baked into checkpoints, so
//       combining it with resume= is rejected. `checkpoint` +
//       `checkpoint_every` write crash-safe state every N rounds; `resume`
//       continues a checkpointed run bitwise-identically (optionally with a
//       larger rounds= to extend it); `deadline` bounds the wall clock — an
//       expired run returns its completed prefix, writes a final checkpoint
//       (when configured), and exits 6.
//
//   ccdctl scenario [name=paper|sybil|adaptive|misreport|churn|mixed|all]
//          [policy=dynamic|static|fixed|exclude|all] [overrides...]
//          [recall_floor=0.5] [out=FILE.json]
//       Run the adversarial scenario matrix (src/scenario): each selected
//       scenario x designer policy cell scores requester utility, detector
//       precision/recall against the planted adversaries, and quarantine
//       counts, then checks the matrix shape invariants (dynamic >= the
//       fixed-contract baseline under every adversary, detector recall >=
//       recall_floor). Violations exit 1; out= dumps the cells as JSON.
//
//   ccdctl serve socket=PATH|port=N|gateway=ADDR op=<ping|status|contracts|
//          metrics|health|close|shutdown|join|retire> [session=ID]
//          [spec=SPEC] [shard=NAME] [prometheus=0|1] [out=FILE]
//       One administrative request against a running ccdd daemon or a
//       ccd-gateway front end (gateway=PATH or gateway=HOST:PORT is an
//       alias for socket=/port=; `ccdctl gateway ...` is an alias for
//       `ccdctl serve ...`). op=health prints the load snapshot — on a
//       gateway, aggregated across the alive shards. op=join admits (or
//       rejoins) a shard into a gateway ring at runtime, moving only the
//       sessions whose ring owner changed: spec=NAME=unix:SOCKET[@CKPT_DIR]
//       or NAME=tcp:HOST:PORT[@CKPT_DIR], the ccd-gateway shards= grammar.
//       op=retire shard=NAME gracefully retires one; both are idempotent.
//
//   ccdctl submit socket=PATH|port=N|gateway=ADDR session=ID [to=ROUND]
//          [rounds=40]
//          [workers=6] [malicious=2] [seed=1] [mu=1.0] [batch=1]
//          [deadline=SECONDS] [out=FILE] [close=0|1]
//       Drive a simulation session on a daemon to a round target. The open
//       is idempotent (re-attaches to an existing session, so interrupted
//       submits re-run safely after a daemon restart) and backpressure is
//       retried. `out` exports the posted contracts with full float
//       precision — two runs reaching the same round byte-diff equal.
//
// All arguments are key=value; unknown keys are rejected. One flag is the
// exception: `--metrics[=FILE]` (any command) prints the observability
// summary — per-stage latency percentiles, thread-pool utilization,
// design-cache hit rate — after the command finishes, and with =FILE also
// writes the full registry dump (Prometheus text format when FILE ends in
// .prom, JSON otherwise).
//
// Exit codes mirror the ccd::Error hierarchy (see util/error.hpp):
//   0 success, 1 generic error, 2 usage / ConfigError, 3 DataError,
//   4 MathError, 5 ContractError, 6 deadline expired / cancelled,
//   7 transport authentication failed (CSRV v3 token handshake).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <unistd.h>

#include "contract/worker_response.hpp"
#include "core/checkpoint.hpp"
#include "core/equilibrium.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/stackelberg.hpp"
#include "policy/policy.hpp"
#include "data/analytics.hpp"
#include "data/generator.hpp"
#include "data/loader.hpp"
#include "data/metrics.hpp"
#include "detect/collusion.hpp"
#include "detect/expert.hpp"
#include "detect/malicious.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/gateway.hpp"
#include "util/cancellation.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace ccd;

int usage() {
  std::fprintf(
      stderr,
      "usage: ccdctl <command> [key=value ...] [--metrics[=FILE]]\n"
      "\n"
      "commands:\n"
      "  generate out=<prefix> [preset=small|medium|full] [seed=N]\n"
      "  inspect  trace=<prefix> [threshold=0.5]\n"
      "  design   trace=<prefix>|preset=small|medium|full [mu=1.0] [seed=N]\n"
      "           [strategy=dynamic|exclude|fixed]\n"
      "           [policy=failfast|quarantine|fallback|bip|bandit|posted]\n"
      "           [lenient_load=0|1]\n"
      "           [fault_rate=0.0] [fault_seed=0] [out=<file.csv>]\n"
      "           [deadline=SECONDS]\n"
      "  simulate [rounds=40] [workers=6] [malicious=2] [seed=1]\n"
      "           [policy=bip|bandit|posted] [deadline=SECONDS]\n"
      "           [checkpoint=FILE] [checkpoint_every=N] [resume=FILE]\n"
      "           [threads=N]\n"
      "  scenario [name=paper|sybil|adaptive|misreport|churn|mixed|all]\n"
      "           [policy=dynamic|static|fixed|exclude|bandit|posted|all]\n"
      "           [workers=N]\n"
      "           [malicious=N] [communities=2,3] [sybil=N] [adaptive=0|1]\n"
      "           [misreport=0|1] [churn_arrival=F] [churn_lifetime=F]\n"
      "           [rounds=N] [seed=N] [recall_floor=0.5] [threads=N]\n"
      "           [out=FILE.json]\n"
      "  serve    socket=PATH|port=N|gateway=ADDR [host=127.0.0.1]\n"
      "           op=ping|status|contracts|metrics|health|close|shutdown\n"
      "              |join|retire\n"
      "           [session=ID] [spec=SPEC] [shard=NAME] [token=SECRET]\n"
      "           [prometheus=0|1] [out=FILE]\n"
      "           (`ccdctl gateway ...` is an alias; op=join admits a shard\n"
      "            at runtime, SPEC = NAME=unix:SOCKET[@CKPT_DIR] |\n"
      "            NAME=tcp:HOST:PORT[@CKPT_DIR]; op=retire shard=NAME)\n"
      "  submit   socket=PATH|port=N|gateway=ADDR [host=127.0.0.1]\n"
      "           session=ID [to=ROUND] [rounds=40] [workers=6]\n"
      "           [malicious=2] [seed=1] [mu=1.0] [batch=1]\n"
      "           [policy=bip|bandit|posted] [token=SECRET]\n"
      "           [deadline=SECONDS] [out=FILE] [close=0|1]\n"
      "\n"
      "shared flags:\n"
      "  preset=small|medium|full   bundled synthetic trace instead of CSVs\n"
      "  deadline=SECONDS           wall-clock budget; expiry exits 6 with\n"
      "                             the completed prefix (simulate: plus a\n"
      "                             final checkpoint when configured)\n"
      "  checkpoint=FILE            crash-safe simulate state (atomic+fsync)\n"
      "  checkpoint_every=N         snapshot every N completed rounds\n"
      "  resume=FILE                continue a checkpointed simulate run\n"
      "                             bitwise-identically (rounds= extends it)\n"
      "  threads=N                  private pool size (0 = shared pool)\n"
      "  gateway=ADDR               serve/submit: ccd-gateway address (PATH\n"
      "                             or HOST:PORT), alias for socket=/port=\n"
      "  token=SECRET               serve/submit: shared secret for the CSRV\n"
      "                             v3 handshake (required by daemons on\n"
      "                             non-loopback TCP; failure exits 7)\n"
      "  --metrics[=FILE]           print the metrics summary after the\n"
      "                             command; with =FILE also dump the full\n"
      "                             registry (.prom -> Prometheus, else "
      "JSON)\n"
      "\n"
      "exit codes: 0 ok, 1 error, 2 usage/config, 3 data, 4 math, "
      "5 contract, 6 deadline, 7 auth\n");
  return 2;
}

data::GeneratorParams preset_by_name(const std::string& name) {
  if (name == "small") return data::GeneratorParams::small();
  if (name == "medium") return data::GeneratorParams::medium();
  if (name == "full") return data::GeneratorParams::amazon2015();
  throw ConfigError("unknown preset '" + name + "'");
}

int cmd_generate(const util::ParamMap& params) {
  const std::string out = params.get_string("out", "");
  data::GeneratorParams gen =
      preset_by_name(params.get_string("preset", "medium"));
  if (params.contains("seed")) {
    gen.seed = static_cast<std::uint64_t>(params.get_int("seed", 42));
  }
  params.assert_all_consumed();
  if (out.empty()) {
    std::fprintf(stderr, "generate: missing out=<prefix>\n");
    return 2;
  }
  const data::ReviewTrace trace = data::generate_trace(gen);
  data::save_trace(trace, out);
  std::printf("wrote %s.{workers,products,reviews}.csv\n", out.c_str());
  std::printf("%s\n", trace.stats().to_string().c_str());
  return 0;
}

int cmd_inspect(const util::ParamMap& params) {
  const std::string prefix = params.get_string("trace", "");
  const double threshold = params.get_double("threshold", 0.5);
  params.assert_all_consumed();
  if (prefix.empty()) {
    std::fprintf(stderr, "inspect: missing trace=<prefix>\n");
    return 2;
  }
  const data::ReviewTrace trace = data::load_trace(prefix);
  std::printf("trace: %s\n", trace.stats().to_string().c_str());

  const data::WorkerMetrics metrics(trace);
  const detect::ExpertPanel experts(trace, metrics);
  std::printf("experts: %zu (%.1f%% product coverage)\n",
              experts.experts().size(), 100.0 * experts.coverage());

  const detect::MaliciousDetector detector(trace, experts);
  const auto quality = detector.evaluate(trace, threshold);
  std::printf("detector @ %.2f: precision %.3f recall %.3f F1 %.3f\n",
              threshold, quality.precision(), quality.recall(), quality.f1());

  const detect::CollusionResult detected =
      detect::cluster_collusive_workers(trace, detector.flagged(threshold));
  std::printf("detected collusion: %s\n",
              detect::census(detected).to_string().c_str());
  const detect::CollusionResult truth =
      detect::cluster_ground_truth_malicious(trace);
  std::printf("ground-truth collusion: %s\n",
              detect::census(truth).to_string().c_str());

  std::printf("\ndistributions:\n%s",
              data::render_distributions(data::trace_distributions(trace))
                  .c_str());
  const auto inflated = data::most_inflated_products(trace, 5, 3);
  if (!inflated.empty()) {
    std::printf("\nmost score-inflated products (audit candidates):\n");
    for (const data::ProductSummary& p : inflated) {
      std::printf("  product %u: %zu reviews, score %.2f vs quality %.2f "
                  "(+%.2f), malicious share %.0f%%\n",
                  p.id, p.reviews, p.mean_score, p.true_quality,
                  p.score_inflation, 100.0 * p.malicious_share);
    }
  }
  return 0;
}

core::FaultPolicy policy_by_name(const std::string& name) {
  if (name == "failfast") return core::FaultPolicy::fail_fast();
  if (name == "quarantine") return core::FaultPolicy::quarantine();
  if (name == "fallback") return core::FaultPolicy::fallback();
  throw ConfigError(
      "unknown policy '" + name +
      "' (expected failfast|quarantine|fallback|bip|bandit|posted)");
}

/// design's policy= key is a union: the per-stage degradation modes above,
/// or a contract-designer backend from src/policy.
bool is_designer_policy(const std::string& name) {
  return name == "bip" || name == "bandit" || name == "posted";
}

/// policy=bandit|posted post-pass: replay the pipeline's solved subproblems
/// through the selected online learner — a fixed 96-round deterministic
/// loop against exact worker best responses — and report how much of the
/// designed (BiP) utility the learner recovers from scratch.
void design_policy_refinement(const core::PipelineResult& result,
                              policy::Kind kind) {
  std::vector<policy::WorkerView> views;
  double designed = 0.0;
  for (const core::SubproblemOutcome& sub : result.subproblems) {
    if (sub.design.contract.is_zero()) continue;
    policy::WorkerView view;
    view.psi = sub.spec.psi;
    view.beta = sub.spec.incentives.beta;
    view.omega = sub.spec.incentives.omega;
    view.weight = sub.spec.weight;
    view.mu = sub.spec.mu;
    view.intervals = sub.spec.intervals;
    views.push_back(view);
    designed += sub.design.requester_utility;
  }
  if (views.empty()) {
    std::printf("online refinement (%s): no solved subproblems to refine\n",
                policy::to_string(kind));
    return;
  }
  const std::size_t n = views.size();
  policy::PolicyConfig config;
  config.kind = kind;
  const std::unique_ptr<policy::Policy> learner = policy::make_policy(config);
  util::Rng rng(17);
  std::vector<contract::Contract> contracts(n);
  constexpr std::size_t kRounds = 96;
  const std::size_t window = kRounds / 4;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t t = 0; t < kRounds; ++t) {
    policy::PostEnv env;
    learner->post(t, true, views, contracts, rng, env);
    std::vector<policy::RoundOutcome> outcomes(n);
    double round_utility = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      contract::WorkerIncentives inc;
      inc.beta = views[i].beta;
      inc.omega = views[i].omega;
      const contract::BestResponse response =
          contract::best_response(contracts[i], views[i].psi, inc);
      outcomes[i].active = true;
      outcomes[i].feedback = response.feedback;
      outcomes[i].reward = views[i].weight * response.feedback -
                           views[i].mu * response.compensation;
      round_utility += outcomes[i].reward;
    }
    learner->observe(t, outcomes, rng);
    if (t < window) early += round_utility;
    if (t >= kRounds - window) late += round_utility;
  }
  std::printf(
      "online refinement (%s, %zu rounds, %zu worker(s)): per-round utility "
      "%.3f (first quarter) -> %.3f (last quarter), designed bip %.3f "
      "(%.1f%% recovered)\n",
      policy::to_string(kind), kRounds, n,
      early / static_cast<double>(window),
      late / static_cast<double>(window), designed,
      designed > 0.0
          ? 100.0 * (late / static_cast<double>(window)) / designed
          : 0.0);
}

core::PricingStrategy strategy_by_name(const std::string& name) {
  if (name == "dynamic") return core::PricingStrategy::kDynamicContract;
  if (name == "exclude") return core::PricingStrategy::kExcludeMalicious;
  if (name == "fixed") return core::PricingStrategy::kFixedPayment;
  throw ConfigError("unknown strategy '" + name + "'");
}

void export_contracts(const core::PipelineResult& result,
                      const std::string& path) {
  util::CsvWriter writer(path);
  writer.write_row({"worker", "excluded", "k_opt", "effort", "feedback",
                    "compensation", "knot_feedback", "knot_payment"});
  for (const core::WorkerOutcome& w : result.workers) {
    const core::SubproblemOutcome& sub = result.subproblems[w.subproblem];
    std::string knots;
    std::string payments;
    const contract::Contract& c = sub.design.contract;
    for (std::size_t l = 0; !c.is_zero() && l <= c.intervals(); ++l) {
      if (l > 0) {
        knots += ';';
        payments += ';';
      }
      knots += util::format_double(c.knot(l), 4);
      payments += util::format_double(c.payment(l), 4);
    }
    writer.write_row({std::to_string(w.id), w.excluded ? "1" : "0",
                      std::to_string(sub.design.k_opt),
                      util::format_double(w.effort, 4),
                      util::format_double(w.feedback, 4),
                      util::format_double(w.compensation, 4), knots,
                      payments});
  }
}

int cmd_design(const util::ParamMap& params) {
  const std::string prefix = params.get_string("trace", "");
  const std::string preset = params.get_string("preset", "");
  const double mu = params.get_double("mu", 1.0);
  const std::string strategy = params.get_string("strategy", "dynamic");
  const std::string policy = params.get_string("policy", "failfast");
  const bool lenient_load = params.get_bool("lenient_load", false);
  const double deadline_s = params.get_double("deadline", 0.0);
  const bool has_deadline = params.contains("deadline");
  const double fault_rate = params.get_double("fault_rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(params.get_int("fault_seed", 0));
  const std::string out = params.get_string("out", "");
  data::GeneratorParams gen;
  if (!preset.empty()) {
    gen = preset_by_name(preset);
    if (params.contains("seed")) {
      gen.seed = static_cast<std::uint64_t>(
          params.get_int("seed", static_cast<long long>(gen.seed)));
    }
  }
  params.assert_all_consumed();
  if (prefix.empty() == preset.empty()) {
    std::fprintf(stderr,
                 "design: need exactly one of trace=<prefix> or "
                 "preset=small|medium|full\n");
    return 2;
  }

  core::PipelineConfig config;
  config.requester.mu = mu;
  config.strategy = strategy_by_name(strategy);
  // Designer-backend names keep the default fail-fast fault handling; the
  // learner pass runs after the pipeline.
  config.faults = is_designer_policy(policy) ? core::FaultPolicy::fail_fast()
                                             : policy_by_name(policy);

  util::CancellationToken cancel_token;
  if (has_deadline) {
    cancel_token.set_deadline(util::Deadline::after(deadline_s));
    config.cancel = &cancel_token;
  }

  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return util::format_double(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count(),
        2);
  };
  const Clock::time_point load_start = Clock::now();
  data::ReviewTrace trace;
  if (!preset.empty()) {
    trace = data::generate_trace(gen);
    std::printf("generated preset '%s': %s\n", preset.c_str(),
                trace.stats().to_string().c_str());
  } else if (lenient_load) {
    data::SanitizedTrace sanitized =
        data::load_trace_sanitized_retrying(prefix, config.sanitize);
    if (!sanitized.report.clean()) {
      std::printf("%s\n", sanitized.report.to_string().c_str());
    }
    config.load_report = sanitized.report;
    trace = std::move(sanitized.trace);
  } else {
    trace = data::load_trace_retrying(prefix);
  }
  const std::string load_ms = ms_since(load_start);

  if (fault_rate > 0.0) {
    util::FaultInjectorConfig chaos;
    chaos.enabled = true;
    chaos.seed = fault_seed;
    chaos.rate = fault_rate;
    util::FaultInjector::instance().configure(chaos);
    std::printf("fault injector armed: rate=%.3f seed=%llu\n", fault_rate,
                static_cast<unsigned long long>(fault_seed));
  }
  const core::PipelineResult result = core::run_pipeline(trace, config);
  if (fault_rate > 0.0) {
    std::printf("fault injector: %zu fault(s) fired\n",
                util::FaultInjector::instance().total_injected());
    util::FaultInjector::instance().disable();
  }
  if (result.health.degraded()) {
    std::printf("%s\n", result.health.to_string().c_str());
  }

  std::printf("%s\n", core::describe_pipeline_result(result).c_str());
  std::printf("%s\n",
              core::render_class_table(core::compensation_by_class(result),
                                       "comp")
                  .c_str());

  // Certify the designed contracts before posting them.
  const Clock::time_point audit_start = Clock::now();
  const core::FleetAudit audit = core::audit_pipeline(result);
  const std::string audit_ms = ms_since(audit_start);
  std::printf("equilibrium audit: %zu/%zu contracts audited, %s (max worker "
              "regret %.2e, min participation margin %.2e)\n",
              audit.audited, audit.subproblems,
              audit.clean() ? "all IC/IR clean" : "VIOLATIONS FOUND",
              audit.max_worker_regret, audit.min_participation_margin);
  std::printf("wall time: %s=%s ms | pipeline %s | audit=%s ms\n",
              preset.empty() ? "load" : "generate", load_ms.c_str(),
              result.timings.to_string().c_str(), audit_ms.c_str());
  if (is_designer_policy(policy) && policy != "bip") {
    design_policy_refinement(result, policy::kind_from_string(policy));
  }
  if (!out.empty()) {
    export_contracts(result, out);
    std::printf("wrote per-worker contracts to %s\n", out.c_str());
  }
  if (result.health.cancelled) {
    std::printf("deadline expired (%s): partial result, %zu subproblem(s) "
                "left unsolved\n",
                util::to_string(result.health.cancel_reason),
                result.health.unsolved_subproblems);
    return ccd::exit_code(ccd::ErrorCode::kDeadline);
  }
  return 0;
}

int cmd_simulate(const util::ParamMap& params) {
  const bool has_rounds = params.contains("rounds");
  const auto rounds = static_cast<std::size_t>(params.get_int("rounds", 40));
  const auto n_workers = static_cast<std::size_t>(params.get_int("workers", 6));
  const auto n_malicious =
      static_cast<std::size_t>(params.get_int("malicious", 2));
  const auto seed = static_cast<std::uint64_t>(params.get_int("seed", 1));
  const double deadline_s = params.get_double("deadline", 0.0);
  const bool has_deadline = params.contains("deadline");
  const std::string checkpoint_path = params.get_string("checkpoint", "");
  const auto checkpoint_every =
      static_cast<std::size_t>(params.get_int("checkpoint_every", 0));
  const std::string resume_path = params.get_string("resume", "");
  const auto threads = static_cast<std::size_t>(params.get_int("threads", 0));
  const bool has_policy = params.contains("policy");
  const std::string policy_name = params.get_string("policy", "bip");
  params.assert_all_consumed();
  if (n_malicious > n_workers) {
    std::fprintf(stderr, "simulate: malicious > workers\n");
    return 2;
  }
  if (has_policy && !resume_path.empty()) {
    std::fprintf(stderr,
                 "simulate: policy= is baked into the checkpoint and cannot "
                 "be combined with resume=\n");
    return 2;
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    std::fprintf(stderr, "simulate: checkpoint_every needs checkpoint=FILE\n");
    return 2;
  }

  util::CancellationToken cancel_token;
  const util::CancellationToken* cancel = nullptr;
  if (has_deadline) {
    cancel_token.set_deadline(util::Deadline::after(deadline_s));
    cancel = &cancel_token;
  }

  core::SimResult result;
  std::string checkpoint_file = checkpoint_path;  // where the run writes
  if (!resume_path.empty()) {
    core::SimCheckpoint checkpoint = core::load_checkpoint(resume_path);
    // Fleet/seed params are baked into the checkpoint; rounds= may extend
    // the run, and checkpoint/threads knobs may be overridden. Without
    // checkpoint=, the run checkpoints into the file it resumed from at the
    // stored cadence, never into the path stored inside it: that may name
    // the run the file was copied from.
    if (has_rounds) checkpoint.config.rounds = rounds;
    if (!checkpoint_path.empty()) {
      checkpoint.config.checkpoint_path = checkpoint_path;
      checkpoint.config.checkpoint_every =
          checkpoint_every > 0 ? checkpoint_every
                               : checkpoint.config.checkpoint_every;
    } else {
      checkpoint.config.checkpoint_path = resume_path;
      checkpoint_file = resume_path;
    }
    if (threads > 0) checkpoint.config.threads = threads;
    std::printf("resuming from %s: %zu/%zu round(s) done\n",
                resume_path.c_str(), checkpoint.next_round,
                checkpoint.config.rounds);
    result = core::StackelbergSimulator(checkpoint).run(cancel);
  } else {
    const std::vector<core::SimWorkerSpec> fleet =
        core::preset_fleet(n_workers, n_malicious);
    core::SimConfig config;
    config.rounds = rounds;
    config.seed = seed;
    config.checkpoint_path = checkpoint_path;
    config.checkpoint_every = checkpoint_every;
    config.threads = threads;
    config.policy.kind = policy::kind_from_string(policy_name);
    result = core::StackelbergSimulator(fleet, config).run(cancel);
  }

  // Sample ~12 evenly spaced completed rounds, always including the final
  // one (a step-aligned loop used to drop it whenever rounds % step != 1).
  util::TextTable table({"round", "requester utility", "total pay"});
  const std::size_t done = result.rounds.size();
  if (done > 0) {
    const std::size_t step = std::max<std::size_t>(1, done / 12);
    for (std::size_t t = 0; t < done; t += step) {
      table.add_row({std::to_string(t),
                     util::format_double(result.rounds[t].requester_utility, 3),
                     util::format_double(result.rounds[t].total_compensation,
                                         3)});
    }
    if ((done - 1) % step != 0) {
      const std::size_t t = done - 1;
      table.add_row({std::to_string(t),
                     util::format_double(result.rounds[t].requester_utility, 3),
                     util::format_double(result.rounds[t].total_compensation,
                                         3)});
    }
    std::printf("%s", table.render().c_str());
  }
  std::printf("cumulative requester utility: %.3f\n",
              result.cumulative_requester_utility);
  if (result.cancelled) {
    const std::string where =
        checkpoint_file.empty() ? "" : "; checkpoint: " + checkpoint_file;
    std::printf("simulation cancelled (%s) after %zu round(s)%s\n",
                util::to_string(result.cancel_reason), done, where.c_str());
    return ccd::exit_code(ccd::ErrorCode::kDeadline);
  }
  return 0;
}

serve::Client connect_client(const util::ParamMap& params) {
  std::string socket = params.get_string("socket", "");
  std::string host = params.get_string("host", "127.0.0.1");
  long long port = params.get_int("port", -1);
  // gateway=PATH (unix socket) or gateway=HOST:PORT — alias for
  // socket=/host=/port=, so serve/submit invocations read naturally when
  // the peer is a ccd-gateway front end instead of a single ccdd.
  const std::string gateway = params.get_string("gateway", "");
  if (!gateway.empty()) {
    const std::size_t colon = gateway.rfind(':');
    if (colon == std::string::npos) {
      socket = gateway;
    } else {
      host = gateway.substr(0, colon);
      char* end = nullptr;
      port = std::strtol(gateway.c_str() + colon + 1, &end, 10);
      if (end == nullptr || *end != '\0' || port < 0) {
        throw ConfigError("bad gateway address '" + gateway +
                          "' (want PATH or HOST:PORT)");
      }
    }
  }
  serve::ClientOptions options;
  options.auth_token = params.get_string("token", "");
  if (!socket.empty()) return serve::Client::connect_unix(socket, options);
  if (port >= 0) {
    return serve::Client::connect_tcp(host, static_cast<int>(port), options);
  }
  throw ConfigError(
      "need socket=PATH, port=N, or gateway=ADDR to reach a daemon");
}

/// Shortest round-trip decimal rendering: two equal doubles produce equal
/// text, so contract exports from bitwise-identical runs byte-diff equal.
std::string full_precision(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void export_serve_contracts(const std::vector<contract::Contract>& contracts,
                            const std::string& path) {
  util::CsvWriter writer(path);
  writer.write_row({"worker", "intervals", "knots", "payments"});
  for (std::size_t i = 0; i < contracts.size(); ++i) {
    const contract::Contract& c = contracts[i];
    std::string knots;
    std::string payments;
    for (std::size_t l = 0; !c.is_zero() && l <= c.intervals(); ++l) {
      if (l > 0) {
        knots += ';';
        payments += ';';
      }
      knots += full_precision(c.knot(l));
      payments += full_precision(c.payment(l));
    }
    writer.write_row({std::to_string(i),
                      std::to_string(c.is_zero() ? 0 : c.intervals()), knots,
                      payments});
  }
}

void print_session_status(const std::string& session,
                          const serve::SessionStatus& status) {
  std::printf("session %s: round %llu/%llu, %llu worker(s), cumulative "
              "requester utility %.3f%s\n",
              session.c_str(),
              static_cast<unsigned long long>(status.next_round),
              static_cast<unsigned long long>(status.rounds),
              static_cast<unsigned long long>(status.workers),
              status.cumulative_requester_utility,
              status.finished ? " (finished)" : "");
}

int cmd_scenario(const util::ParamMap& params) {
  const std::string name = params.get_string("name", "all");
  const std::string policy_name = params.get_string("policy", "all");
  const std::string out = params.get_string("out", "");
  const double recall_floor = params.get_double("recall_floor", 0.5);
  scenario::RunOptions options;
  options.threads = static_cast<std::size_t>(params.get_int("threads", 0));

  std::vector<scenario::ScenarioSpec> specs;
  if (name == "all") {
    specs = scenario::ScenarioSpec::matrix();
  } else {
    specs.push_back(scenario::ScenarioSpec::preset(name));
  }
  for (scenario::ScenarioSpec& spec : specs) spec.apply_params(params);
  params.assert_all_consumed();

  std::vector<scenario::Policy> policies;
  if (policy_name == "all") {
    policies = scenario::all_policies();
  } else {
    policies.push_back(scenario::policy_from_string(policy_name));
  }

  scenario::MatrixResult matrix;
  std::printf("%-10s %-8s %12s %12s %10s %10s %10s %6s %6s\n", "scenario",
              "policy", "utility", "comp", "det_prec", "det_rec", "comm_rec",
              "quar", "excl");
  for (const scenario::ScenarioSpec& spec : specs) {
    for (const scenario::Policy policy : policies) {
      const scenario::ScenarioCell cell =
          scenario::run_cell(spec, policy, options);
      std::printf("%-10s %-8s %12.3f %12.3f %10.3f %10.3f %10.3f %6zu %6zu\n",
                  cell.scenario.c_str(), scenario::to_string(cell.policy),
                  cell.score.requester_utility, cell.score.total_compensation,
                  cell.score.detector_precision, cell.score.detector_recall,
                  cell.score.community_recall, cell.score.quarantined,
                  cell.score.excluded);
      matrix.cells.push_back(cell);
    }
  }

  if (!out.empty()) {
    std::ofstream file(out, std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "scenario: cannot open '%s' for writing\n",
                   out.c_str());
      return 1;
    }
    file << matrix.to_json();
    std::printf("wrote %s\n", out.c_str());
  }

  const std::vector<std::string> violations =
      matrix.violations(recall_floor);
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "scenario: INVARIANT VIOLATED: %s\n",
                 violation.c_str());
  }
  if (violations.empty()) {
    std::printf("scenario: all invariants hold (%zu cells)\n",
                matrix.cells.size());
  }
  return violations.empty() ? 0 : 1;
}

int cmd_serve(const util::ParamMap& params) {
  const std::string op = params.get_string("op", "ping");
  const std::string session = params.get_string("session", "");
  const std::string spec_text = params.get_string("spec", "");
  const std::string shard_name = params.get_string("shard", "");
  const bool prometheus = params.get_bool("prometheus", false);
  const std::string out = params.get_string("out", "");
  serve::Client client = connect_client(params);
  params.assert_all_consumed();

  if (op == "join") {
    if (spec_text.empty()) {
      std::fprintf(stderr,
                   "serve: op=join needs spec=NAME=unix:SOCKET[@CKPT_DIR] | "
                   "NAME=tcp:HOST:PORT[@CKPT_DIR]\n");
      return 2;
    }
    const serve::ShardSpec spec = serve::ShardSpec::parse(spec_text);
    std::printf("joined shard '%s': %s\n", spec.name.c_str(),
                client.join_shard(spec.to_target()).c_str());
    return 0;
  }
  if (op == "retire") {
    if (shard_name.empty()) {
      std::fprintf(stderr, "serve: op=retire needs shard=NAME\n");
      return 2;
    }
    std::printf("retired shard '%s': %s\n", shard_name.c_str(),
                client.retire_shard(shard_name).c_str());
    return 0;
  }

  if (op == "ping") {
    std::printf("%s\n", client.ping().c_str());
    return 0;
  }
  if (op == "metrics") {
    const std::string text = client.metrics(prometheus);
    if (out.empty()) {
      std::printf("%s", text.c_str());
    } else {
      std::ofstream stream(out);
      if (!stream) {
        std::fprintf(stderr, "serve: cannot write %s\n", out.c_str());
        return 2;
      }
      stream << text;
      std::printf("wrote daemon metrics to %s\n", out.c_str());
    }
    return 0;
  }
  if (op == "shutdown") {
    client.shutdown_server();
    std::printf("daemon draining\n");
    return 0;
  }
  if (op == "health") {
    const serve::HealthInfo health = client.health();
    std::printf("sessions %llu/%llu, queue %llu/%llu%s\n",
                static_cast<unsigned long long>(health.sessions_open),
                static_cast<unsigned long long>(health.max_sessions),
                static_cast<unsigned long long>(health.queue_depth),
                static_cast<unsigned long long>(health.queue_capacity),
                health.draining ? ", draining" : "");
    return 0;
  }
  if (session.empty()) {
    std::fprintf(stderr, "serve: op=%s needs session=ID\n", op.c_str());
    return 2;
  }
  if (op == "status") {
    print_session_status(session, client.status(session));
    return 0;
  }
  if (op == "contracts") {
    const std::vector<contract::Contract> contracts =
        client.contracts(session);
    if (!out.empty()) {
      export_serve_contracts(contracts, out);
      std::printf("wrote %zu contract(s) to %s\n", contracts.size(),
                  out.c_str());
    } else {
      for (std::size_t i = 0; i < contracts.size(); ++i) {
        const contract::Contract& c = contracts[i];
        std::printf("worker %zu: %s\n", i,
                    c.is_zero() ? "zero contract"
                                : (std::to_string(c.intervals()) +
                                   " interval(s), top payment " +
                                   util::format_double(
                                       c.payment(c.intervals()), 4))
                                      .c_str());
      }
    }
    return 0;
  }
  if (op == "close") {
    print_session_status(session, client.close_session(session));
    return 0;
  }
  std::fprintf(stderr, "serve: unknown op '%s'\n", op.c_str());
  return 2;
}

int cmd_submit(const util::ParamMap& params) {
  const std::string session = params.get_string("session", "");
  const auto rounds = static_cast<std::uint64_t>(params.get_int("rounds", 40));
  const auto to = static_cast<std::uint64_t>(
      params.get_int("to", static_cast<long long>(rounds)));
  const auto batch = static_cast<std::uint64_t>(params.get_int("batch", 1));
  const double deadline_s = params.get_double("deadline", 0.0);
  const std::string out = params.get_string("out", "");
  const bool close = params.get_bool("close", false);

  serve::OpenParams open;
  open.mode = serve::SessionMode::kSimulation;
  open.rounds = rounds;
  open.workers = static_cast<std::uint64_t>(params.get_int("workers", 6));
  open.malicious = static_cast<std::uint64_t>(params.get_int("malicious", 2));
  open.seed = static_cast<std::uint64_t>(params.get_int("seed", 1));
  open.mu = params.get_double("mu", 1.0);
  open.policy = policy::kind_from_string(params.get_string("policy", "bip"));
  open.allow_existing = true;  // idempotent: re-attach after interruption

  serve::Client client = connect_client(params);
  params.assert_all_consumed();
  if (session.empty()) {
    std::fprintf(stderr, "submit: missing session=ID\n");
    return 2;
  }
  if (batch == 0) {
    std::fprintf(stderr, "submit: batch must be >= 1\n");
    return 2;
  }
  const auto deadline_ms = static_cast<std::uint32_t>(deadline_s * 1000.0);

  serve::SessionStatus status = client.open(session, open, deadline_ms);
  const std::uint64_t target = std::min<std::uint64_t>(to, status.rounds);
  while (status.next_round < target) {
    const serve::Client::AdvanceResult step = client.advance(
        session, std::min<std::uint64_t>(batch, target - status.next_round),
        deadline_ms);
    if (step.backpressure || step.unavailable) {
      // Explicit overload signal, or a gateway with every shard down
      // (a rolling restart): retry, don't pile on.
      ::usleep(20 * 1000);
      continue;
    }
    status = step.session;
    if (step.deadline_expired) {
      print_session_status(session, status);
      std::printf("submit: deadline expired; completed rounds are retained "
                  "server-side\n");
      return ccd::exit_code(ccd::ErrorCode::kDeadline);
    }
  }
  print_session_status(session, status);
  if (!out.empty()) {
    export_serve_contracts(client.contracts(session, deadline_ms), out);
    std::printf("wrote contracts to %s\n", out.c_str());
  }
  if (close) {
    client.close_session(session, deadline_ms);
    std::printf("session %s closed\n", session.c_str());
  }
  return 0;
}

/// Print the observability summary (and optionally dump the registry to
/// `file`: Prometheus text when the name ends in .prom, JSON otherwise).
void report_metrics(const std::string& file) {
  namespace metrics = util::metrics;
  const std::string summary = metrics::render_summary();
  std::printf("\n%s", summary.empty() ? "metrics: nothing recorded\n"
                                      : summary.c_str());
  if (file.empty()) return;
  const bool prom =
      file.size() >= 5 && file.compare(file.size() - 5, 5, ".prom") == 0;
  std::ofstream out(file);
  if (!out) {
    std::fprintf(stderr, "ccdctl: cannot write metrics to %s\n", file.c_str());
    return;
  }
  out << (prom ? metrics::to_prometheus() : metrics::to_json());
  std::printf("wrote metrics (%s) to %s\n", prom ? "prometheus" : "json",
              file.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --metrics[=FILE] before key=value parsing (the '=' form would
  // otherwise be misread as a parameter named "--metrics").
  bool want_metrics = false;
  std::string metrics_file;
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      want_metrics = true;
      continue;
    }
    if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      want_metrics = true;
      metrics_file = argv[i] + 10;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;

  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::ParamMap params =
      util::ParamMap::from_args(argc - 1, argv + 1);
  try {
    int rc = 2;
    if (command == "generate") rc = cmd_generate(params);
    else if (command == "inspect") rc = cmd_inspect(params);
    else if (command == "design") rc = cmd_design(params);
    else if (command == "simulate") rc = cmd_simulate(params);
    else if (command == "scenario") rc = cmd_scenario(params);
    else if (command == "serve") rc = cmd_serve(params);
    else if (command == "gateway") rc = cmd_serve(params);
    else if (command == "submit") rc = cmd_submit(params);
    else return usage();
    if (want_metrics) report_metrics(metrics_file);
    return rc;
  } catch (const ccd::Error& e) {
    std::fprintf(stderr, "ccdctl %s: %s\n", command.c_str(), e.what());
    return ccd::exit_code(e.code());
  }
}
