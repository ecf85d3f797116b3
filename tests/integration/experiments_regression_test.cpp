// Golden-shape regression harness over the paper's evaluation shapes: the
// executable form of bench_fig6_bounds, bench_table2_communities, and
// bench_fig8c_vs_baseline. The benches print tables for humans; these tests
// pin the shapes those tables are expected to show, so a regression in the
// designer, the generator, or the clustering trips CI instead of silently
// bending a figure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "contract/baselines.hpp"
#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "core/pipeline.hpp"
#include "data/generator.hpp"
#include "detect/collusion.hpp"
#include "effort/effort_model.hpp"

namespace ccd {
namespace {

// Fig. 6 — designed requester utility vs the Theorem 4.1 bounds for a
// single honest worker as the effort partition densifies.
class Fig6Regression : public ::testing::Test {
 protected:
  static contract::SubproblemSpec spec() {
    contract::SubproblemSpec s;
    s.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
    s.incentives = {1.0, 0.0};
    s.weight = 1.0;
    s.mu = 1.0;
    return s;
  }
};

TEST_F(Fig6Regression, DesignedUtilityIsMonotoneInPartitionDensity) {
  contract::SubproblemSpec s = spec();
  double prev = -std::numeric_limits<double>::infinity();
  for (const std::size_t m : {2ul, 4ul, 8ul, 16ul, 32ul, 64ul, 128ul}) {
    s.intervals = m;
    const contract::DesignResult d = contract::design_contract(s);
    // Densifying the partition only adds candidate contracts, so the
    // designed utility must not decrease (the paper's Fig. 6 shape).
    EXPECT_GE(d.requester_utility, prev - 1e-12) << "m=" << m;
    EXPECT_LE(d.requester_utility, d.upper_bound + 1e-9) << "m=" << m;
    EXPECT_GE(d.requester_utility, d.lower_bound - 1e-9) << "m=" << m;
    prev = d.requester_utility;
  }
}

TEST_F(Fig6Regression, ConvergesToFineGridOracleAtM128) {
  contract::SubproblemSpec s = spec();
  s.intervals = 128;
  const contract::DesignResult d = contract::design_contract(s);
  const contract::OracleOutcome oracle = contract::oracle_optimal(s);
  ASSERT_GT(oracle.requester_utility, 0.0);
  // Theorem 4.1: the gap to the unrestricted optimum vanishes as m grows.
  // At m = 128 the designed utility is within 0.1% of the oracle.
  EXPECT_NEAR(d.requester_utility, oracle.requester_utility,
              1e-3 * oracle.requester_utility);
}

// Table II — the amazon2015 preset reproduces the paper's collusive
// community census exactly on the default seed.
TEST(Table2Regression, Amazon2015CensusIsExactOnDefaultSeed) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::amazon2015());
  const detect::CollusionResult truth =
      detect::cluster_ground_truth_malicious(trace);
  const detect::CommunityCensus c = detect::census(truth);
  EXPECT_EQ(c.communities, 47u);
  EXPECT_EQ(c.workers, 212u);

  // Both clustering backends must agree on the census.
  const detect::CollusionResult dfs = detect::cluster_ground_truth_malicious(
      trace, detect::ClusterBackend::kDfsGraph);
  const detect::CommunityCensus cd = detect::census(dfs);
  EXPECT_EQ(cd.communities, c.communities);
  EXPECT_EQ(cd.workers, c.workers);
  EXPECT_DOUBLE_EQ(cd.pct_size2, c.pct_size2);
  EXPECT_DOUBLE_EQ(cd.pct_size10plus, c.pct_size10plus);
}

// Fig. 8(c) — the designed (dynamic) contract beats the fixed-payment
// baseline on the same trace for every evaluated mu.
TEST(Fig8cRegression, DynamicBeatsFixedPaymentAcrossMu) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::medium());
  for (const double mu : {1.0, 0.9, 0.8}) {
    core::PipelineConfig dynamic;
    dynamic.requester.mu = mu;
    core::PipelineConfig fixed = dynamic;
    fixed.strategy = core::PricingStrategy::kFixedPayment;
    fixed.fixed_payment = 2.0;
    fixed.fixed_threshold_effort = 1.0;

    const double u_dynamic =
        core::run_pipeline(trace, dynamic).total_requester_utility;
    const double u_fixed =
        core::run_pipeline(trace, fixed).total_requester_utility;
    EXPECT_GT(u_dynamic, u_fixed) << "mu=" << mu;
  }
}

// Fig. 8(c)'s dynamic numbers come from the pipeline's one fleet-design
// path; on the same trace every subproblem it solved must equal the
// per-subproblem reference design_contract of its spec, bit for bit.
TEST(Fig8cRegression, SolveStageMatchesPerSubproblemDesign) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::medium());
  for (const double mu : {1.0, 0.8}) {
    core::PipelineConfig config;
    config.requester.mu = mu;
    const core::PipelineResult result = core::run_pipeline(trace, config);
    ASSERT_FALSE(result.subproblems.empty());
    std::size_t solved = 0;
    for (std::size_t i = 0; i < result.subproblems.size(); ++i) {
      const core::SubproblemOutcome& sub = result.subproblems[i];
      ASSERT_FALSE(sub.quarantined) << "mu=" << mu << " subproblem " << i;
      const contract::DesignResult want = contract::design_contract(sub.spec);
      const contract::DesignResult& got = sub.design;
      EXPECT_EQ(got.excluded, want.excluded) << "mu=" << mu << " " << i;
      EXPECT_EQ(got.k_opt, want.k_opt) << "mu=" << mu << " " << i;
      EXPECT_EQ(got.requester_utility, want.requester_utility)
          << "mu=" << mu << " " << i;
      EXPECT_EQ(got.upper_bound, want.upper_bound) << "mu=" << mu << " " << i;
      EXPECT_EQ(got.lower_bound, want.lower_bound) << "mu=" << mu << " " << i;
      EXPECT_EQ(got.response.compensation, want.response.compensation)
          << "mu=" << mu << " " << i;
      EXPECT_EQ(got.response.feedback, want.response.feedback)
          << "mu=" << mu << " " << i;
      if (!got.excluded) ++solved;
    }
    EXPECT_GT(solved, result.subproblems.size() / 2) << "mu=" << mu;
  }
}

// The vectorized fleet path must reproduce the golden shapes, not just
// match design_contract on random fleets: Fig. 6's monotone m-sweep
// through design_contracts_batch. (Fig. 8c's pipeline tests above already
// run the solve stage on it.)
TEST_F(Fig6Regression, SimdFleetPathReproducesMonotoneShape) {
  contract::SubproblemSpec s = spec();
  double prev = -std::numeric_limits<double>::infinity();
  for (const std::size_t m : {2ul, 4ul, 8ul, 16ul, 32ul, 64ul, 128ul}) {
    s.intervals = m;
    const std::vector<contract::DesignResult> batch =
        contract::design_contracts_batch({s});
    ASSERT_EQ(batch.size(), 1u);
    const contract::DesignResult& d = batch[0];
    EXPECT_GE(d.requester_utility, prev - 1e-12) << "m=" << m;
    EXPECT_LE(d.requester_utility, d.upper_bound + 1e-9) << "m=" << m;
    EXPECT_GE(d.requester_utility, d.lower_bound - 1e-9) << "m=" << m;
    prev = d.requester_utility;
  }
}

}  // namespace
}  // namespace ccd
