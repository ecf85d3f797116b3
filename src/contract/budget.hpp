// Budget-feasible contract allocation.
//
// The paper's related work (§VI — Singer's budget-feasibility line) designs
// incentives under a hard payment budget; our extension brings that setting
// to the dynamic-contract model. Given the per-candidate (pay, utility)
// menus the designer produces for every subproblem, choose one candidate
// (or exclusion) per worker to maximize total requester utility subject to
// total compensation <= budget.
//
// The selection problem is a multiple-choice knapsack. We solve it by
// Lagrangian relaxation: for a price-of-money lambda each worker
// independently picks argmax_k (utility_k - lambda * pay_k) (with the
// opt-out option at 0), and lambda is bisected until the spend meets the
// budget. Because per-worker menus are small and utilities are concave-ish
// in pay, the duality gap is at most one worker's pay — negligible at fleet
// scale, and an exhaustive check in the tests confirms it on small inputs.
#pragma once

#include <cstddef>
#include <vector>

#include "contract/designer.hpp"

namespace ccd::contract {

/// One worker's menu: what each candidate contract ξ^(k) of the k-sweep
/// would pay and earn the requester (index k - 1).
struct BudgetMenu {
  std::vector<double> pay;      ///< candidate k's response.compensation
  std::vector<double> utility;  ///< requester_utility(spec, candidate k)
};

/// One menu per spec, in order. Each class of specs (the DesignCacheKey
/// grouping design_contracts_batch uses) runs one k-sweep, built from its
/// first positive-weight member. A spec with weight <= 0 gets an empty
/// menu: the designer excludes it outright. A spec the §V rule excludes
/// (every candidate utility negative) keeps its full, all-negative menu.
/// Validates every spec, in order, as the designer does.
std::vector<BudgetMenu> budget_menus(const std::vector<SubproblemSpec>& specs);

struct BudgetChoice {
  /// Selected candidate index + 1 (i.e. the k); 0 = opt out of this worker.
  std::size_t k = 0;
  double pay = 0.0;
  double utility = 0.0;
};

struct BudgetAllocation {
  std::vector<BudgetChoice> choices;  ///< one per menu, same order
  double total_pay = 0.0;
  double total_utility = 0.0;
  /// Shadow price of budget at the solution (0 when the budget is slack).
  double lambda = 0.0;
  bool budget_binding = false;
};

/// Allocate under `budget` (>= 0). Menus may be empty (always opted out).
BudgetAllocation allocate_budget(const std::vector<BudgetMenu>& menus,
                                 double budget);

/// Exact solution by exhaustive enumeration — exponential, for testing and
/// tiny fleets only (throws ccd::ContractError beyond `max_items` menus).
BudgetAllocation allocate_budget_exact(const std::vector<BudgetMenu>& menus,
                                       double budget,
                                       std::size_t max_items = 12);

}  // namespace ccd::contract
