#include "contract/budget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ccd::contract {
namespace {

BudgetMenu menu(std::initializer_list<double> pay,
                std::initializer_list<double> utility) {
  BudgetMenu m;
  m.pay = pay;
  m.utility = utility;
  return m;
}

TEST(BudgetTest, SlackBudgetPicksUnconstrainedOptimum) {
  const std::vector<BudgetMenu> menus = {
      menu({1.0, 2.0, 3.0}, {1.0, 2.5, 3.0}),
      menu({0.5, 1.0}, {0.8, 1.0}),
  };
  const BudgetAllocation a = allocate_budget(menus, 100.0);
  EXPECT_FALSE(a.budget_binding);
  EXPECT_EQ(a.choices[0].k, 3u);
  EXPECT_EQ(a.choices[1].k, 2u);
  EXPECT_DOUBLE_EQ(a.total_utility, 4.0);
  EXPECT_DOUBLE_EQ(a.total_pay, 4.0);
}

TEST(BudgetTest, ZeroBudgetOptsEveryoneOut) {
  const std::vector<BudgetMenu> menus = {
      menu({1.0}, {5.0}),
      menu({2.0}, {9.0}),
  };
  const BudgetAllocation a = allocate_budget(menus, 0.0);
  EXPECT_DOUBLE_EQ(a.total_pay, 0.0);
  EXPECT_DOUBLE_EQ(a.total_utility, 0.0);
  for (const BudgetChoice& c : a.choices) EXPECT_EQ(c.k, 0u);
}

TEST(BudgetTest, FreeOptionsSurviveZeroBudget) {
  const std::vector<BudgetMenu> menus = {
      menu({0.0, 1.0}, {0.4, 5.0}),
  };
  const BudgetAllocation a = allocate_budget(menus, 0.0);
  EXPECT_EQ(a.choices[0].k, 1u);
  EXPECT_DOUBLE_EQ(a.total_utility, 0.4);
}

TEST(BudgetTest, BindingBudgetPrefersDenserWorker) {
  // Two workers, each with one option; budget fits only one.
  const std::vector<BudgetMenu> menus = {
      menu({2.0}, {3.0}),  // density 1.5
      menu({2.0}, {5.0}),  // density 2.5  <- should win
  };
  const BudgetAllocation a = allocate_budget(menus, 2.0);
  EXPECT_TRUE(a.budget_binding);
  EXPECT_EQ(a.choices[0].k, 0u);
  EXPECT_EQ(a.choices[1].k, 1u);
  EXPECT_DOUBLE_EQ(a.total_utility, 5.0);
}

TEST(BudgetTest, NeverExceedsBudget) {
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<BudgetMenu> menus;
    const int workers = static_cast<int>(rng.uniform_int(1, 12));
    for (int w = 0; w < workers; ++w) {
      BudgetMenu m;
      double pay = 0.0;
      double utility = 0.0;
      const int options = static_cast<int>(rng.uniform_int(1, 6));
      for (int o = 0; o < options; ++o) {
        pay += rng.uniform(0.1, 2.0);
        utility += rng.uniform(0.0, 2.0);
        m.pay.push_back(pay);
        m.utility.push_back(utility);
      }
      menus.push_back(std::move(m));
    }
    const double budget = rng.uniform(0.0, 10.0);
    const BudgetAllocation a = allocate_budget(menus, budget);
    EXPECT_LE(a.total_pay, budget + 1e-6);
  }
}

TEST(BudgetTest, MatchesExactOnSmallRandomInstances) {
  util::Rng rng(11);
  double worst_ratio = 1.0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<BudgetMenu> menus;
    const int workers = static_cast<int>(rng.uniform_int(2, 6));
    for (int w = 0; w < workers; ++w) {
      BudgetMenu m;
      double pay = 0.0;
      double utility = 0.0;
      const int options = static_cast<int>(rng.uniform_int(1, 4));
      for (int o = 0; o < options; ++o) {
        pay += rng.uniform(0.2, 1.5);
        utility += rng.uniform(0.1, 1.5);
        m.pay.push_back(pay);
        m.utility.push_back(utility);
      }
      menus.push_back(std::move(m));
    }
    const double budget = rng.uniform(0.5, 4.0);
    const BudgetAllocation approx = allocate_budget(menus, budget);
    const BudgetAllocation exact = allocate_budget_exact(menus, budget);
    EXPECT_LE(approx.total_utility, exact.total_utility + 1e-9);
    if (exact.total_utility > 1e-9) {
      worst_ratio =
          std::min(worst_ratio, approx.total_utility / exact.total_utility);
    }
  }
  // Lagrangian + greedy fill should be near-exact on these instances.
  EXPECT_GT(worst_ratio, 0.9);
}

TEST(BudgetTest, MonotoneInBudget) {
  const std::vector<BudgetMenu> menus = {
      menu({1.0, 2.0, 4.0}, {1.0, 1.8, 2.2}),
      menu({1.5, 3.0}, {2.0, 2.4}),
      menu({0.5}, {0.3}),
  };
  double prev = -1.0;
  for (const double budget : {0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0}) {
    const double utility = allocate_budget(menus, budget).total_utility;
    EXPECT_GE(utility, prev - 1e-9) << "budget=" << budget;
    prev = utility;
  }
}

TEST(BudgetTest, BudgetMenusCarryDesignColumns) {
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  spec.weight = 1.0;
  spec.mu = 1.0;
  spec.intervals = 8;
  const DesignResult d = design_contract(spec);
  const BudgetMenu m = budget_menus({spec}).front();
  ASSERT_EQ(m.pay.size(), 8u);
  ASSERT_EQ(m.utility.size(), 8u);
  EXPECT_DOUBLE_EQ(m.utility[d.k_opt - 1], d.requester_utility);
  EXPECT_DOUBLE_EQ(m.pay[d.k_opt - 1], d.response.compensation);
}

TEST(BudgetTest, FleetDesignUnderTightBudget) {
  // End to end: design menus for a small fleet, then squeeze the budget and
  // verify spend obeys it while utility degrades gracefully.
  std::vector<SubproblemSpec> specs;
  for (int i = 0; i < 10; ++i) {
    SubproblemSpec spec;
    spec.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
    spec.weight = 0.5 + 0.1 * i;
    spec.mu = 1.0;
    spec.intervals = 12;
    specs.push_back(spec);
  }
  const std::vector<BudgetMenu> menus = budget_menus(specs);
  const BudgetAllocation rich = allocate_budget(menus, 1e9);
  const BudgetAllocation tight =
      allocate_budget(menus, 0.25 * rich.total_pay);
  EXPECT_LE(tight.total_pay, 0.25 * rich.total_pay + 1e-6);
  EXPECT_LT(tight.total_utility, rich.total_utility);
  EXPECT_GT(tight.total_utility, 0.0);
}

TEST(BudgetTest, Validation) {
  EXPECT_THROW(allocate_budget({}, -1.0), Error);
  BudgetMenu bad;
  bad.pay = {1.0};
  bad.utility = {1.0, 2.0};
  EXPECT_THROW(allocate_budget({bad}, 1.0), Error);
  BudgetMenu negative;
  negative.pay = {-1.0};
  negative.utility = {1.0};
  EXPECT_THROW(allocate_budget({negative}, 1.0), Error);
}

TEST(BudgetTest, ExactGuardsAgainstBlowup) {
  std::vector<BudgetMenu> many(20, menu({1.0}, {1.0}));
  EXPECT_THROW(allocate_budget_exact(many, 5.0), ContractError);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(y);
         });
}

/// The per-k reference: the spec's own k-sweep, scalarized with the
/// designer's utility expression; empty when the designer excludes the
/// spec by weight.
BudgetMenu sweep_menu(const SubproblemSpec& spec) {
  BudgetMenu menu;
  if (spec.weight <= 0.0) return menu;
  for (const BestResponse& response : build_design_table(spec).responses) {
    menu.pay.push_back(response.compensation);
    menu.utility.push_back(requester_utility(spec, response));
  }
  return menu;
}

/// Mixed fleets: random classes and weights, plus every case budget_menus
/// treats specially.
std::vector<std::vector<SubproblemSpec>> menu_fleets() {
  SubproblemSpec a;
  a.psi = effort::QuadraticEffort(-1.0, 8.0, 0.0);
  a.incentives = {1.0, 0.0};
  a.weight = 1.5;
  SubproblemSpec twin = a;  // sign-of-zero twin: a's class, own bits
  twin.psi = effort::QuadraticEffort(-1.0, 8.0, -0.0);
  twin.incentives.omega = -0.0;
  twin.weight = 0.7;
  SubproblemSpec stingy = twin;  // §V: every candidate loses money
  stingy.weight = 1e-4;
  SubproblemSpec zero = a;  // weight-excluded: empty menu
  zero.weight = 0.0;
  SubproblemSpec negative = a;
  negative.weight = -2.0;
  SubproblemSpec signed_zero = a;
  signed_zero.weight = -0.0;

  std::vector<std::vector<SubproblemSpec>> fleets;
  // The twin first, so it (not `a`) runs its class's k-sweep.
  fleets.push_back({twin, zero, a, stingy, negative, signed_zero});
  fleets.push_back({a, twin, stingy, zero});
  util::Rng rng(61);
  for (int f = 0; f < 3; ++f) {
    std::vector<SubproblemSpec> fleet;
    for (int i = 0; i < 40; ++i) {
      SubproblemSpec spec;
      const int c = static_cast<int>(rng.next_u64() % 4);
      spec.psi = effort::QuadraticEffort(-1.0 - 0.1 * c, 8.0 - 0.5 * c,
                                         2.0 + 0.25 * c);
      spec.incentives = {1.0 + 0.1 * c, c % 2 == 0 ? 0.0 : 0.3};
      spec.mu = 1.0 + 0.25 * c;
      spec.intervals = 8 + 4 * static_cast<std::size_t>(c);
      spec.weight = rng.uniform(-0.3, 2.5);
      fleet.push_back(spec);
    }
    fleet.push_back(stingy);
    fleet.push_back(zero);
    fleets.push_back(std::move(fleet));
  }
  return fleets;
}

void expect_menus_match_sweeps(const std::vector<BudgetMenu>& menus,
                               const std::vector<SubproblemSpec>& specs,
                               const std::string& where) {
  ASSERT_EQ(menus.size(), specs.size()) << where;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const BudgetMenu want = sweep_menu(specs[i]);
    EXPECT_TRUE(same_bits(menus[i].pay, want.pay)) << where << " spec " << i;
    EXPECT_TRUE(same_bits(menus[i].utility, want.utility))
        << where << " spec " << i;
  }
}

// budget_menus runs one k-sweep per class, from the class's first
// positive-weight member; every menu must still equal the per-k columns of
// the spec's own sweep, bit for bit, on one thread and on four concurrent
// callers.
TEST(BudgetMenusTest, MatchEachSpecsOwnSweepBitwise) {
  const std::vector<std::vector<SubproblemSpec>> fleets = menu_fleets();
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    std::vector<std::vector<BudgetMenu>> got(fleets.size());
    pool.parallel_for(fleets.size(), [&](std::size_t f) {
      got[f] = budget_menus(fleets[f]);
    });
    for (std::size_t f = 0; f < fleets.size(); ++f) {
      expect_menus_match_sweeps(got[f], fleets[f],
                                std::to_string(threads) + " threads fleet " +
                                    std::to_string(f));
    }
  }
}

TEST(BudgetMenusTest, ExclusionRulesShapeTheMenus) {
  const std::vector<SubproblemSpec> fleet = menu_fleets().front();
  const std::vector<BudgetMenu> menus = budget_menus(fleet);
  // twin, zero, a, stingy, negative, signed_zero
  EXPECT_EQ(menus[0].utility.size(), fleet[0].intervals);
  EXPECT_TRUE(menus[1].pay.empty() && menus[1].utility.empty());
  EXPECT_EQ(menus[2].utility.size(), fleet[2].intervals);
  // §V exclusion: the designer returns the zero contract, the menu keeps
  // every (all-negative) candidate.
  ASSERT_TRUE(design_contract(fleet[3]).excluded);
  ASSERT_EQ(menus[3].utility.size(), fleet[3].intervals);
  for (const double u : menus[3].utility) EXPECT_LT(u, 0.0);
  EXPECT_TRUE(menus[4].utility.empty());
  EXPECT_TRUE(menus[5].utility.empty());
}

TEST(BudgetMenusTest, InvalidSpecThrows) {
  std::vector<SubproblemSpec> specs = menu_fleets().front();
  specs.back().mu = 0.0;  // weight-excluded, still validated
  EXPECT_THROW(budget_menus(specs), Error);
}

}  // namespace
}  // namespace ccd::contract
