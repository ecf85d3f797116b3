// End-to-end integration: generate -> persist -> reload -> full pipeline ->
// reports, and cross-strategy comparisons on the same medium-sized trace.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/stackelberg.hpp"
#include "data/generator.hpp"
#include "data/loader.hpp"
#include "detect/collusion.hpp"
#include "effort/fitting.hpp"

namespace ccd {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new data::ReviewTrace(
        data::generate_trace(data::GeneratorParams::medium()));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static data::ReviewTrace* trace_;
};

data::ReviewTrace* EndToEndTest::trace_ = nullptr;

TEST_F(EndToEndTest, PersistReloadPipelineEquivalence) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ccd_e2e_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "trace").string();
  data::save_trace(*trace_, prefix);
  const data::ReviewTrace reloaded = data::load_trace(prefix);
  std::filesystem::remove_all(dir);

  const core::PipelineResult a = run_pipeline(*trace_, core::PipelineConfig{});
  const core::PipelineResult b =
      run_pipeline(reloaded, core::PipelineConfig{});
  // Scores round-trip at 4 decimals; aggregate results should agree closely.
  EXPECT_NEAR(a.total_requester_utility, b.total_requester_utility,
              1e-3 * std::abs(a.total_requester_utility) + 1e-6);
  EXPECT_EQ(a.collusion.communities.size(), b.collusion.communities.size());
}

TEST_F(EndToEndTest, StrategyOrderingHoldsOnMediumTrace) {
  core::PipelineConfig dynamic;
  core::PipelineConfig exclusion;
  exclusion.strategy = core::PricingStrategy::kExcludeMalicious;
  core::PipelineConfig fixed;
  fixed.strategy = core::PricingStrategy::kFixedPayment;
  fixed.fixed_payment = 2.0;
  fixed.fixed_threshold_effort = 1.0;

  const double u_dynamic =
      run_pipeline(*trace_, dynamic).total_requester_utility;
  const double u_exclusion =
      run_pipeline(*trace_, exclusion).total_requester_utility;
  const double u_fixed = run_pipeline(*trace_, fixed).total_requester_utility;

  EXPECT_GT(u_dynamic, u_exclusion);  // Fig. 8(c)
  EXPECT_GT(u_dynamic, u_fixed);      // motivation in §I
}

TEST_F(EndToEndTest, DesignedUtilitiesRespectTheoremBounds) {
  const core::PipelineResult r =
      run_pipeline(*trace_, core::PipelineConfig{});
  std::size_t checked = 0;
  for (const core::SubproblemOutcome& sub : r.subproblems) {
    if (sub.design.excluded) continue;
    EXPECT_LE(sub.design.requester_utility, sub.design.upper_bound + 1e-6);
    EXPECT_GE(sub.design.requester_utility, sub.design.lower_bound - 1e-6);
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST_F(EndToEndTest, GroundTruthClusteringMatchesDetectorOnPlanted) {
  // With ground-truth labels, clustering equals the planted structure; the
  // detector-driven clustering should recover most of it.
  core::PipelineConfig truth;
  truth.use_ground_truth_labels = true;
  core::PipelineConfig detected;
  const core::PipelineResult a = run_pipeline(*trace_, truth);
  const core::PipelineResult b = run_pipeline(*trace_, detected);
  EXPECT_EQ(a.collusion.communities.size(),
            data::GeneratorParams::medium().community_sizes.size());
  EXPECT_GE(b.collusion.communities.size(),
            a.collusion.communities.size() / 2);
}

TEST_F(EndToEndTest, ClassFitsFeedCommunityDesigns) {
  const core::PipelineResult r =
      run_pipeline(*trace_, core::PipelineConfig{});
  for (const core::SubproblemOutcome& sub : r.subproblems) {
    if (r.workers_of(sub).size() > 1) {
      // Community spec must carry the malicious omega.
      EXPECT_GT(sub.spec.incentives.omega, 0.0);
    }
  }
}

TEST_F(EndToEndTest, SimulatorConsistentWithOneShotDesign) {
  // A noise-free simulation of a static honest worker should converge to
  // the same per-round utility the one-shot designer predicts.
  const effort::QuadraticEffort psi(-1.0, 8.0, 2.0);
  core::SimWorkerSpec w;
  w.psi = psi;
  w.beta = 1.0;
  w.omega = 0.0;
  w.accuracy_distance = 0.5;

  core::SimConfig config;
  config.rounds = 30;
  config.feedback_noise = 0.0;
  config.accuracy_noise = 0.0;
  config.seed = 1;
  const core::SimResult sim =
      core::StackelbergSimulator({w}, config).run();

  contract::SubproblemSpec spec;
  spec.psi = psi;
  spec.incentives = {1.0, 0.0};
  spec.weight = core::feedback_weight(config.requester, 0.5,
                                      /*e_mal=*/0.0, 0);
  spec.mu = config.requester.mu;
  spec.intervals = config.requester.intervals;
  const contract::DesignResult d = contract::design_contract(spec);

  // Steady state (estimates converged, payment lag settled): last round's
  // requester utility should be near the designed per-round utility.
  const double last = sim.rounds.back().requester_utility;
  EXPECT_NEAR(last, d.requester_utility,
              0.15 * std::abs(d.requester_utility) + 0.1);
}

}  // namespace
}  // namespace ccd
