#include "contract/budget.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "contract/design_cache.hpp"
#include "util/error.hpp"

namespace ccd::contract {
namespace {

/// Best choice for one menu at money-price lambda (opt-out scores 0).
BudgetChoice best_at_lambda(const BudgetMenu& menu, double lambda) {
  BudgetChoice best;  // opt-out
  double best_score = 0.0;
  for (std::size_t i = 0; i < menu.pay.size(); ++i) {
    const double score = menu.utility[i] - lambda * menu.pay[i];
    // Strict improvement, with cheaper-pay tie-breaking to conserve budget.
    if (score > best_score + 1e-12 ||
        (score > best_score - 1e-12 && best.k != 0 &&
         menu.pay[i] < best.pay)) {
      best.k = i + 1;
      best.pay = menu.pay[i];
      best.utility = menu.utility[i];
      best_score = score;
    }
  }
  return best;
}

double spend_at_lambda(const std::vector<BudgetMenu>& menus, double lambda,
                       std::vector<BudgetChoice>* out) {
  double total = 0.0;
  if (out != nullptr) out->clear();
  for (const BudgetMenu& menu : menus) {
    const BudgetChoice choice = best_at_lambda(menu, lambda);
    total += choice.pay;
    if (out != nullptr) out->push_back(choice);
  }
  return total;
}

/// Exact-on-grid multiple-choice knapsack DP. Pays are rounded *up* to
/// budget/grid units so the result is always feasible; with a 4096-point
/// grid the rounding loss is negligible. Used when the table fits in a few
/// megabytes (small/medium fleets); the Lagrangian path covers the rest.
constexpr std::size_t kDpGrid = 4096;
constexpr std::size_t kDpMaxCells = 2'000'000;

bool dp_applicable(std::size_t menus) {
  return menus * (kDpGrid + 1) <= kDpMaxCells;
}

BudgetAllocation allocate_budget_dp(const std::vector<BudgetMenu>& menus,
                                    double budget) {
  const std::size_t grid = budget > 0.0 ? kDpGrid : 0;
  const auto cost_units = [&](double pay) -> std::size_t {
    if (pay <= 0.0) return 0;
    if (budget <= 0.0) return grid + 1;  // unaffordable
    return static_cast<std::size_t>(
        std::ceil(pay / budget * static_cast<double>(grid) - 1e-12));
  };

  constexpr double kNegInf = -1e300;
  std::vector<double> best(grid + 1, kNegInf);
  best[0] = 0.0;
  // choice[w][u]: option index + 1 taken by worker w when the running cost
  // is u after processing w (0 = opt out).
  std::vector<std::vector<std::uint16_t>> choice(
      menus.size(), std::vector<std::uint16_t>(grid + 1, 0));

  for (std::size_t w = 0; w < menus.size(); ++w) {
    const BudgetMenu& menu = menus[w];
    std::vector<double> next = best;  // opt out keeps the state
    for (std::size_t i = 0; i < menu.pay.size(); ++i) {
      const std::size_t cost = cost_units(menu.pay[i]);
      if (cost > grid) continue;
      for (std::size_t u = grid + 1; u-- > cost;) {
        const double candidate = best[u - cost] + menu.utility[i];
        if (best[u - cost] > kNegInf / 2 && candidate > next[u] + 1e-12) {
          next[u] = candidate;
          choice[w][u] = static_cast<std::uint16_t>(i + 1);
        }
      }
    }
    best = std::move(next);
  }

  std::size_t best_u = 0;
  for (std::size_t u = 0; u <= grid; ++u) {
    if (best[u] > best[best_u]) best_u = u;
  }

  BudgetAllocation result;
  result.choices.assign(menus.size(), BudgetChoice{});
  std::size_t u = best_u;
  for (std::size_t w = menus.size(); w-- > 0;) {
    const std::uint16_t taken = choice[w][u];
    if (taken != 0) {
      const std::size_t i = taken - 1;
      result.choices[w] = {static_cast<std::size_t>(taken),
                           menus[w].pay[i], menus[w].utility[i]};
      u -= cost_units(menus[w].pay[i]);
    }
  }
  for (const BudgetChoice& c : result.choices) {
    result.total_pay += c.pay;
    result.total_utility += c.utility;
  }
  result.budget_binding = result.total_pay > budget - 1e-6;
  return result;
}

}  // namespace

std::vector<BudgetMenu> budget_menus(
    const std::vector<SubproblemSpec>& specs) {
  std::unordered_map<DesignCacheKey, DesignTable, DesignCacheKeyHash> tables;
  std::vector<BudgetMenu> menus(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SubproblemSpec& spec = specs[i];
    spec.validate();
    if (spec.weight <= 0.0) continue;
    const DesignCacheKey key = DesignCacheKey::of(spec);
    auto it = tables.find(key);
    if (it == tables.end()) {
      it = tables.emplace(key, build_design_table(spec)).first;
    }
    BudgetMenu& menu = menus[i];
    menu.pay.reserve(it->second.responses.size());
    menu.utility.reserve(it->second.responses.size());
    for (const BestResponse& response : it->second.responses) {
      menu.pay.push_back(response.compensation);
      menu.utility.push_back(requester_utility(spec, response));
    }
  }
  return menus;
}

BudgetAllocation allocate_budget(const std::vector<BudgetMenu>& menus,
                                 double budget) {
  CCD_CHECK_MSG(budget >= 0.0, "budget must be non-negative");
  for (const BudgetMenu& menu : menus) {
    CCD_CHECK_MSG(menu.pay.size() == menu.utility.size(),
                  "budget menu pay/utility size mismatch");
    for (const double p : menu.pay) {
      CCD_CHECK_MSG(p >= 0.0, "budget menu pay must be non-negative");
    }
  }

  BudgetAllocation result;

  // Unconstrained solution first: if it already fits, the budget is slack.
  double spend = spend_at_lambda(menus, 0.0, &result.choices);
  if (spend <= budget + 1e-9) {
    result.lambda = 0.0;
    result.budget_binding = false;
  } else {
    // Bisect the money price: spend(lambda) is non-increasing.
    double lo = 0.0;   // spend too high
    double hi = 1.0;   // find an upper bracket
    while (spend_at_lambda(menus, hi, nullptr) > budget && hi < 1e12) {
      hi *= 2.0;
    }
    for (int iter = 0; iter < 200; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (spend_at_lambda(menus, mid, nullptr) > budget) lo = mid;
      else hi = mid;
    }
    result.lambda = hi;
    result.budget_binding = true;
    spend = spend_at_lambda(menus, hi, &result.choices);

    // Greedy fill of the leftover: repeatedly apply the single-worker
    // upgrade with the best utility-per-pay density that still fits.
    while (true) {
      double best_density = 0.0;
      std::size_t best_worker = menus.size();
      std::size_t best_option = 0;
      for (std::size_t w = 0; w < menus.size(); ++w) {
        const BudgetMenu& menu = menus[w];
        const BudgetChoice& current = result.choices[w];
        for (std::size_t i = 0; i < menu.pay.size(); ++i) {
          const double extra_pay = menu.pay[i] - current.pay;
          const double extra_utility = menu.utility[i] - current.utility;
          if (extra_utility <= 1e-12) continue;
          if (spend + extra_pay > budget + 1e-9) continue;
          const double density = extra_pay <= 1e-12
                                     ? 1e18  // free improvement
                                     : extra_utility / extra_pay;
          if (density > best_density) {
            best_density = density;
            best_worker = w;
            best_option = i;
          }
        }
      }
      if (best_worker == menus.size()) break;
      const BudgetMenu& menu = menus[best_worker];
      BudgetChoice& choice = result.choices[best_worker];
      spend += menu.pay[best_option] - choice.pay;
      choice.k = best_option + 1;
      choice.pay = menu.pay[best_option];
      choice.utility = menu.utility[best_option];
    }
  }

  result.total_pay = 0.0;
  result.total_utility = 0.0;
  for (const BudgetChoice& choice : result.choices) {
    result.total_pay += choice.pay;
    result.total_utility += choice.utility;
  }

  // For fleets where the exact-on-grid DP table is affordable, run it too
  // and keep whichever allocation is better — this removes the Lagrangian
  // integrality gap on small instances.
  if (result.budget_binding && dp_applicable(menus.size())) {
    BudgetAllocation dp = allocate_budget_dp(menus, budget);
    if (dp.total_utility > result.total_utility + 1e-12) {
      dp.lambda = result.lambda;
      return dp;
    }
  }
  return result;
}

BudgetAllocation allocate_budget_exact(const std::vector<BudgetMenu>& menus,
                                       double budget, std::size_t max_items) {
  CCD_CHECK_MSG(budget >= 0.0, "budget must be non-negative");
  if (menus.size() > max_items) {
    throw ContractError("allocate_budget_exact: too many menus (" +
                        std::to_string(menus.size()) + " > " +
                        std::to_string(max_items) + ")");
  }
  double combos = 1.0;
  for (const BudgetMenu& menu : menus) {
    combos *= static_cast<double>(menu.pay.size() + 1);
  }
  if (combos > 2e7) {
    throw ContractError("allocate_budget_exact: search space too large");
  }

  BudgetAllocation best;
  best.choices.assign(menus.size(), BudgetChoice{});
  best.total_utility = 0.0;
  best.total_pay = 0.0;

  std::vector<BudgetChoice> current(menus.size());
  const std::function<void(std::size_t, double, double)> recurse =
      [&](std::size_t index, double pay, double utility) {
        if (pay > budget + 1e-9) return;
        if (index == menus.size()) {
          if (utility > best.total_utility + 1e-12) {
            best.total_utility = utility;
            best.total_pay = pay;
            best.choices = current;
          }
          return;
        }
        // Opt out.
        current[index] = BudgetChoice{};
        recurse(index + 1, pay, utility);
        const BudgetMenu& menu = menus[index];
        for (std::size_t i = 0; i < menu.pay.size(); ++i) {
          current[index] = {i + 1, menu.pay[i], menu.utility[i]};
          recurse(index + 1, pay + menu.pay[i], utility + menu.utility[i]);
        }
      };
  recurse(0, 0.0, 0.0);
  best.budget_binding = best.total_pay > budget - 1e-6;
  return best;
}

}  // namespace ccd::contract
