// Determinism: the pipeline's observable outputs are a pure function of
// (trace, config) — the thread count and the observability layer never leak
// into results. Two runs over the same trace, one on a single-thread pool
// and one on a 4-thread pool, must agree bitwise on every payment, effort,
// feedback, and utility (timings and metrics excluded: they measure the
// run, not the answer).
// Scenario runs extend the same contract: a scenario cell is a pure
// function of its spec's seed — invariant across thread counts, and a
// kill + checkpoint-resume (with a freshly re-attached ScenarioHook,
// since hook pointers are never checkpointed) continues the adversarial
// campaign bitwise-identically.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/stackelberg.hpp"
#include "data/generator.hpp"
#include "scenario/scenario.hpp"
#include "util/metrics.hpp"

namespace ccd {
namespace {

void expect_bitwise_equal(const core::PipelineResult& a,
                          const core::PipelineResult& b) {
  // Totals first: a mismatch here gives the quickest signal.
  EXPECT_EQ(a.total_requester_utility, b.total_requester_utility);
  EXPECT_EQ(a.total_compensation, b.total_compensation);
  EXPECT_EQ(a.excluded_workers, b.excluded_workers);

  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    const core::WorkerOutcome& wa = a.workers[i];
    const core::WorkerOutcome& wb = b.workers[i];
    EXPECT_EQ(wa.id, wb.id) << "worker " << i;
    EXPECT_EQ(wa.excluded, wb.excluded) << "worker " << i;
    EXPECT_EQ(wa.subproblem, wb.subproblem) << "worker " << i;
    // operator== on doubles: bitwise-identical values required, not just
    // close ones. Any cross-thread reduction-order leak fails here.
    EXPECT_EQ(wa.compensation, wb.compensation) << "worker " << i;
    EXPECT_EQ(wa.requester_utility, wb.requester_utility) << "worker " << i;
    EXPECT_EQ(wa.effort, wb.effort) << "worker " << i;
    EXPECT_EQ(wa.feedback, wb.feedback) << "worker " << i;
    EXPECT_EQ(wa.weight, wb.weight) << "worker " << i;
    EXPECT_EQ(wa.malicious_probability, wb.malicious_probability)
        << "worker " << i;
  }

  ASSERT_EQ(a.subproblems.size(), b.subproblems.size());
  for (std::size_t i = 0; i < a.subproblems.size(); ++i) {
    const core::SubproblemOutcome& sa = a.subproblems[i];
    const core::SubproblemOutcome& sb = b.subproblems[i];
    EXPECT_TRUE(std::ranges::equal(a.workers_of(sa), b.workers_of(sb)))
        << "subproblem " << i;
    EXPECT_EQ(sa.design.k_opt, sb.design.k_opt) << "subproblem " << i;
    EXPECT_EQ(sa.design.requester_utility, sb.design.requester_utility)
        << "subproblem " << i;
    EXPECT_EQ(sa.design.response.effort, sb.design.response.effort)
        << "subproblem " << i;
  }
}

TEST(DeterminismTest, ThreadCountDoesNotChangeResults) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::medium());
  core::PipelineConfig sequential;
  sequential.threads = 1;
  core::PipelineConfig parallel = sequential;
  parallel.threads = 4;

  const core::PipelineResult a = core::run_pipeline(trace, sequential);
  const core::PipelineResult b = core::run_pipeline(trace, parallel);
  expect_bitwise_equal(a, b);
}

TEST(DeterminismTest, RepeatedRunsAreBitwiseIdentical) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const core::PipelineConfig config;
  const core::PipelineResult a = core::run_pipeline(trace, config);
  const core::PipelineResult b = core::run_pipeline(trace, config);
  expect_bitwise_equal(a, b);
}

scenario::ScenarioSpec adversarial_spec() {
  // Every adversary class at once, small enough to run in milliseconds.
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::preset("mixed");
  util::ParamMap overrides;
  overrides.set("workers", "14");
  overrides.set("malicious", "5");
  overrides.set("communities", "2");
  overrides.set("sybil", "2");
  overrides.set("rounds", "18");
  overrides.set("seed", "21");
  spec.apply_params(overrides);
  return spec;
}

TEST(DeterminismTest, PolicyBackendsAreThreadCountInvariant) {
  // Every contract-designer backend — BiP and both online learners — must
  // produce the same simulation bitwise at any pool size: the learners'
  // per-round arm selection only reads checkpointed state, never thread
  // scheduling.
  for (const policy::Kind kind :
       {policy::Kind::kBip, policy::Kind::kZoomingBandit,
        policy::Kind::kPostedPrice}) {
    SCOPED_TRACE(policy::to_string(kind));
    core::SimConfig sequential;
    sequential.rounds = 24;
    sequential.seed = 5;
    sequential.policy.kind = kind;
    sequential.threads = 1;
    core::SimConfig parallel = sequential;
    parallel.threads = 4;
    const std::vector<core::SimWorkerSpec> workers = core::preset_fleet(10, 3);

    const core::SimResult a =
        core::StackelbergSimulator(workers, sequential).run();
    const core::SimResult b =
        core::StackelbergSimulator(workers, parallel).run();

    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t t = 0; t < a.rounds.size(); ++t) {
      EXPECT_EQ(a.rounds[t].requester_utility, b.rounds[t].requester_utility)
          << "round " << t;
      EXPECT_EQ(a.rounds[t].total_compensation, b.rounds[t].total_compensation)
          << "round " << t;
    }
    EXPECT_EQ(a.cumulative_requester_utility, b.cumulative_requester_utility);
  }
}

TEST(DeterminismTest, ScenarioCellIsThreadCountInvariant) {
  const scenario::ScenarioSpec spec = adversarial_spec();
  for (const scenario::Policy policy :
       {scenario::Policy::kDynamic, scenario::Policy::kFixed}) {
    scenario::RunOptions sequential;
    sequential.threads = 1;
    scenario::RunOptions parallel;
    parallel.threads = 4;
    const scenario::ScenarioCell a = run_cell(spec, policy, sequential);
    const scenario::ScenarioCell b = run_cell(spec, policy, parallel);
    EXPECT_EQ(a.score.requester_utility, b.score.requester_utility);
    EXPECT_EQ(a.score.total_compensation, b.score.total_compensation);
    EXPECT_EQ(a.score.detector_precision, b.score.detector_precision);
    EXPECT_EQ(a.score.detector_recall, b.score.detector_recall);
    EXPECT_EQ(a.score.community_recall, b.score.community_recall);
    EXPECT_EQ(a.score.quarantined, b.score.quarantined);
    EXPECT_EQ(a.score.excluded, b.score.excluded);
  }
}

TEST(DeterminismTest, ScenarioResumeWithFreshHookIsBitwiseIdentical) {
  const scenario::ScenarioSpec spec = adversarial_spec();
  const scenario::Fleet fleet = scenario::build_fleet(spec);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ccd_scenario_resume_" + std::to_string(::getpid()) + ".ckpt"))
          .string();

  // Uninterrupted reference campaign.
  scenario::ScenarioHook full_hook(spec, fleet, scenario::Policy::kDynamic);
  core::StackelbergSimulator full(
      fleet.workers, sim_config(spec, scenario::Policy::kDynamic));
  full.set_round_hook(&full_hook);
  const core::SimResult uninterrupted = full.run();

  // Phase 1: "killed" at the halfway checkpoint.
  scenario::RunOptions durable;
  durable.checkpoint_every = spec.rounds / 2;
  durable.checkpoint_path = path;
  core::SimConfig partial =
      sim_config(spec, scenario::Policy::kDynamic, durable);
  partial.rounds = spec.rounds / 2;
  scenario::ScenarioHook first_hook(spec, fleet, scenario::Policy::kDynamic);
  core::StackelbergSimulator half(fleet.workers, partial);
  half.set_round_hook(&first_hook);
  half.run();

  // Phase 2: restore, re-attach a FRESH hook (hook pointers are not part
  // of a checkpoint), extend to the full horizon.
  core::SimCheckpoint checkpoint = core::load_checkpoint(path);
  EXPECT_EQ(checkpoint.next_round, spec.rounds / 2);
  checkpoint.config.rounds = spec.rounds;
  scenario::ScenarioHook second_hook(spec, fleet, scenario::Policy::kDynamic);
  core::StackelbergSimulator resumed_sim(checkpoint);
  resumed_sim.set_round_hook(&second_hook);
  const core::SimResult resumed = resumed_sim.run();
  std::filesystem::remove(path);

  ASSERT_EQ(uninterrupted.rounds.size(), resumed.rounds.size());
  for (std::size_t t = 0; t < uninterrupted.rounds.size(); ++t) {
    EXPECT_EQ(uninterrupted.rounds[t].requester_utility,
              resumed.rounds[t].requester_utility)
        << "round " << t;
    EXPECT_EQ(uninterrupted.rounds[t].total_compensation,
              resumed.rounds[t].total_compensation)
        << "round " << t;
  }
  ASSERT_EQ(uninterrupted.worker_history.size(), resumed.worker_history.size());
  for (std::size_t w = 0; w < uninterrupted.worker_history.size(); ++w) {
    ASSERT_EQ(uninterrupted.worker_history[w].size(),
              resumed.worker_history[w].size());
    for (std::size_t t = 0; t < uninterrupted.worker_history[w].size(); ++t) {
      EXPECT_EQ(uninterrupted.worker_history[w][t].feedback,
                resumed.worker_history[w][t].feedback)
          << "worker " << w << " round " << t;
      EXPECT_EQ(uninterrupted.worker_history[w][t].compensation,
                resumed.worker_history[w][t].compensation)
          << "worker " << w << " round " << t;
      EXPECT_EQ(uninterrupted.worker_history[w][t].estimated_malicious,
                resumed.worker_history[w][t].estimated_malicious)
          << "worker " << w << " round " << t;
    }
  }
  EXPECT_EQ(uninterrupted.cumulative_requester_utility,
            resumed.cumulative_requester_utility);
}

TEST(DeterminismTest, MetricsArmingDoesNotChangeResults) {
  namespace metrics = util::metrics;
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const core::PipelineConfig config;
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  const core::PipelineResult armed = core::run_pipeline(trace, config);
  metrics::set_enabled(false);
  const core::PipelineResult disarmed = core::run_pipeline(trace, config);
  metrics::set_enabled(was);
  expect_bitwise_equal(armed, disarmed);
}

}  // namespace
}  // namespace ccd
