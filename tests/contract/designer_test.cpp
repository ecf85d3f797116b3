#include "contract/designer.hpp"

#include <gtest/gtest.h>

#include "contract/budget.hpp"
#include "util/error.hpp"

namespace ccd::contract {
namespace {

const effort::QuadraticEffort kPsi(-1.0, 8.0, 2.0);

SubproblemSpec base_spec() {
  SubproblemSpec spec;
  spec.psi = kPsi;
  spec.incentives = {1.0, 0.0};
  spec.weight = 1.0;
  spec.mu = 1.0;
  spec.intervals = 20;
  return spec;
}

TEST(SubproblemSpecTest, ResolvedDomainDefaultsToUsable) {
  const SubproblemSpec spec = base_spec();
  EXPECT_DOUBLE_EQ(spec.resolved_domain(), kPsi.usable_domain());
  EXPECT_DOUBLE_EQ(spec.delta(), kPsi.usable_domain() / 20.0);
}

TEST(SubproblemSpecTest, ExplicitDomainWins) {
  SubproblemSpec spec = base_spec();
  spec.effort_domain = 2.0;
  EXPECT_DOUBLE_EQ(spec.resolved_domain(), 2.0);
  EXPECT_DOUBLE_EQ(spec.delta(), 0.1);
}

TEST(SubproblemSpecTest, ValidationCatchesBadFields) {
  SubproblemSpec spec = base_spec();
  spec.mu = 0.0;
  EXPECT_THROW(spec.validate(), Error);

  spec = base_spec();
  spec.intervals = 0;
  EXPECT_THROW(spec.validate(), Error);

  spec = base_spec();
  spec.incentives.beta = 0.0;
  EXPECT_THROW(spec.validate(), Error);

  spec = base_spec();
  spec.effort_domain = 10.0;  // past psi's peak
  EXPECT_THROW(spec.validate(), Error);
}

TEST(DesignContractTest, SelectedKMaximizesRequesterUtility) {
  const SubproblemSpec spec = base_spec();
  const DesignResult d = design_contract(spec);
  const BudgetMenu menu = budget_menus({spec}).front();
  ASSERT_EQ(menu.utility.size(), 20u);
  ASSERT_GE(d.k_opt, 1u);
  for (const double u : menu.utility) {
    EXPECT_LE(u, menu.utility[d.k_opt - 1] + 1e-12);
  }
  EXPECT_DOUBLE_EQ(d.requester_utility, menu.utility[d.k_opt - 1]);
}

TEST(DesignContractTest, ReportedUtilityMatchesResponse) {
  const SubproblemSpec spec = base_spec();
  const DesignResult d = design_contract(spec);
  EXPECT_NEAR(d.requester_utility,
              spec.weight * d.response.feedback -
                  spec.mu * d.response.compensation,
              1e-12);
}

TEST(DesignContractTest, ResponseIsBestResponseToFinalContract) {
  const SubproblemSpec spec = base_spec();
  const DesignResult d = design_contract(spec);
  const BestResponse again = best_response(d.contract, spec.psi,
                                           spec.incentives);
  EXPECT_DOUBLE_EQ(again.effort, d.response.effort);
  EXPECT_DOUBLE_EQ(again.utility, d.response.utility);
}

TEST(DesignContractTest, WorkerUtilityNonNegative) {
  // Participation: the designed contract never leaves the worker below the
  // zero-effort outside option.
  for (const double omega : {0.0, 0.3, 0.8}) {
    SubproblemSpec spec = base_spec();
    spec.incentives.omega = omega;
    const DesignResult d = design_contract(spec);
    const double outside =
        worker_utility(d.contract, spec.psi, spec.incentives, 0.0);
    EXPECT_GE(d.response.utility, outside - 1e-12);
  }
}

TEST(DesignContractTest, NonPositiveWeightExcludes) {
  SubproblemSpec spec = base_spec();
  spec.weight = 0.0;
  const DesignResult d = design_contract(spec);
  EXPECT_TRUE(d.excluded);
  EXPECT_TRUE(d.contract.is_zero());
  EXPECT_DOUBLE_EQ(d.requester_utility, 0.0);
  EXPECT_DOUBLE_EQ(d.response.compensation, 0.0);
  EXPECT_EQ(d.k_opt, 0u);

  spec.weight = -2.0;
  EXPECT_TRUE(design_contract(spec).excluded);
}

TEST(DesignContractTest, AllCandidatesNegativeFallsBackToExclusion) {
  // Regression (§V elimination rule): with a stingy requester (high mu)
  // and a near-worthless worker (low weight) every candidate contract
  // loses money; the designer must prefer the zero contract (utility 0)
  // instead of returning the least-bad losing candidate.
  SubproblemSpec spec = base_spec();
  spec.mu = 50.0;
  spec.weight = 0.1;
  const DesignResult d = design_contract(spec);
  const BudgetMenu menu = budget_menus({spec}).front();
  ASSERT_EQ(menu.utility.size(), spec.intervals);
  for (const double u : menu.utility) EXPECT_LT(u, 0.0);
  EXPECT_TRUE(d.excluded);
  EXPECT_TRUE(d.contract.is_zero());
  EXPECT_EQ(d.k_opt, 0u);
  EXPECT_DOUBLE_EQ(d.requester_utility, 0.0);
  EXPECT_DOUBLE_EQ(d.response.compensation, 0.0);
  EXPECT_DOUBLE_EQ(d.upper_bound, 0.0);
  EXPECT_DOUBLE_EQ(d.lower_bound, 0.0);
}

TEST(DesignContractTest, TableResolveMatchesDirectDesign) {
  // design_contract == build_design_table + resolve_design, bitwise.
  for (const double w : {0.1, 0.5, 1.0, 3.0}) {
    SubproblemSpec spec = base_spec();
    spec.incentives.omega = 0.25;
    spec.weight = w;
    const DesignResult direct = design_contract(spec);
    const DesignResult via_table =
        resolve_design(spec, build_design_table(spec));
    EXPECT_EQ(direct.requester_utility, via_table.requester_utility);
    EXPECT_EQ(direct.k_opt, via_table.k_opt);
    EXPECT_EQ(direct.response.effort, via_table.response.effort);
    EXPECT_EQ(direct.response.compensation, via_table.response.compensation);
    EXPECT_EQ(direct.upper_bound, via_table.upper_bound);
    EXPECT_EQ(direct.lower_bound, via_table.lower_bound);
    // The selected candidate is the menu's entry k_opt.
    const BudgetMenu menu = budget_menus({spec}).front();
    ASSERT_EQ(menu.utility.size(), spec.intervals);
    if (direct.k_opt == 0) continue;
    EXPECT_EQ(menu.utility[direct.k_opt - 1], via_table.requester_utility);
    EXPECT_EQ(menu.pay[direct.k_opt - 1], via_table.response.compensation);
  }
}

TEST(DesignContractTest, HigherWeightNeverLowersUtility) {
  double prev = -1e300;
  for (const double w : {0.3, 0.6, 1.0, 2.0, 4.0}) {
    SubproblemSpec spec = base_spec();
    spec.weight = w;
    const double u = design_contract(spec).requester_utility;
    EXPECT_GE(u, prev - 1e-9) << "w=" << w;
    prev = u;
  }
}

TEST(DesignContractTest, HigherMuLowersCompensation) {
  SubproblemSpec cheap = base_spec();
  cheap.mu = 0.8;
  SubproblemSpec pricey = base_spec();
  pricey.mu = 2.0;
  const DesignResult a = design_contract(cheap);
  const DesignResult b = design_contract(pricey);
  EXPECT_GE(a.response.compensation, b.response.compensation - 1e-9);
}

TEST(DesignContractTest, MaliciousWorkersArePaidLess) {
  // Paper observation (2): self-motivated (omega > 0) workers need less
  // incentive pay for comparable effort.
  SubproblemSpec honest = base_spec();
  SubproblemSpec malicious = base_spec();
  malicious.incentives.omega = 0.5;
  const DesignResult h = design_contract(honest);
  const DesignResult m = design_contract(malicious);
  EXPECT_LT(m.response.compensation, h.response.compensation);
  EXPECT_GT(m.response.effort, 0.0);
}

TEST(DesignContractTest, ContractIsMonotoneNonDecreasing) {
  const DesignResult d = design_contract(base_spec());
  for (std::size_t l = 1; l <= d.contract.intervals(); ++l) {
    EXPECT_GE(d.contract.payment(l), d.contract.payment(l - 1));
  }
}

TEST(DesignContractTest, SmallMStillWorks) {
  SubproblemSpec spec = base_spec();
  spec.intervals = 1;
  const DesignResult d = design_contract(spec);
  EXPECT_EQ(d.k_opt, 1u);
  EXPECT_GE(d.requester_utility, d.lower_bound - 1e-9);
}

}  // namespace
}  // namespace ccd::contract
