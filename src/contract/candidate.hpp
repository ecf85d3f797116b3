// Candidate-contract construction (paper §IV-C, "Part 2").
//
// For a target effort interval [(k-1)δ, kδ), build the candidate contract
// ξ^(k): slopes on intervals 1..k follow the recurrence of Eq. 39/40 — each
// slope is the smallest value keeping the worker's interval-best utility
// strictly increasing toward interval k (Eq. 36–38) — and the contract is
// flat beyond kδ so additional effort earns nothing.
//
// Recurrence details (with s_l = psi'(lδ), all > 0 on the usable domain):
//
//   alpha_0 = beta / s_0 - omega                       (seed; see DESIGN.md)
//   eps_l   = 4 beta r2^2 δ^2 / (s_{l-1}^2 s_l)        (Eq. 40, division
//                                                       implied by Eq. 42)
//   alpha_l = beta^2 / ((alpha_{l-1} + omega) s_{l-1}^2) + eps_l - omega
//
// The recurrence maintains alpha_l + omega > 0, and alpha_l always lands in
// Lemma 4.1's Case-III window (beta/s_{l-1} - omega, beta/s_l - omega).
// When omega is large the raw slope can be negative — the worker's own
// feedback motive already drives the effort — so the *applied* slope is
// clamped at 0 to keep the contract monotone (Eq. 9); the raw value still
// feeds the recurrence.
//
// Crucially, nothing in the recurrence reads k: candidate k's slopes are
// the prefix alpha_1..alpha_k of one k-independent sequence, flat past kδ.
// The whole k-sweep therefore shares a single recurrence pass
// (candidate_recurrence), build_design_table answers every candidate with
// one best-response scan over that prefix (sweep_best_responses), and a
// candidate becomes a Contract only when a worker selects it
// (DesignTable::candidate). build_candidate builds one candidate from its
// own recurrence; the tests check the table's contracts against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "contract/contract.hpp"
#include "contract/worker_response.hpp"
#include "effort/effort_model.hpp"

namespace ccd::contract {

/// Diagnostics from a candidate build (exposed for tests/analysis).
struct CandidateBuildInfo {
  std::vector<double> raw_slopes;      ///< recurrence values alpha_1..alpha_k
  std::vector<double> applied_slopes;  ///< max(raw, 0)
  std::vector<double> epsilons;        ///< eps_1..eps_k
  /// 1 where the capped Case-III window collapsed (see candidate_recurrence)
  /// and the epsilon floor was substituted for the Eq. 40 value.
  std::vector<std::uint8_t> degenerate_window;
};

/// The k-independent Eq. 39/40 recurrence evaluated for intervals
/// 1..k_max, plus the cumulative payments along the ascending branch.
/// Candidate k's payments are pay_prefix[0..k] followed by a flat tail.
/// The struct is an out-parameter so repeated sweeps (one per spec class)
/// reuse vector capacity instead of reallocating per candidate.
struct CandidateRecurrence {
  std::vector<double> psi_prime;                 ///< s_l = psi'(l delta), 0..m
  std::vector<double> raw_slopes;                ///< alpha_1..alpha_{k_max}
  std::vector<double> applied_slopes;            ///< max(raw, 0)
  std::vector<double> epsilons;                  ///< eps_1..eps_{k_max}
  std::vector<std::uint8_t> degenerate_window;   ///< per-l degeneracy flags
  std::vector<double> pay_prefix;                ///< payments[0..k_max]
};

/// Run the slope recurrence for intervals 1..k_max on the grid
/// {0, δ, ..., mδ}. Requires 1 <= k_max <= m and psi strictly increasing on
/// [0, mδ] (throws ccd::ContractError otherwise).
///
/// Epsilon handling (`cap_epsilon = true`): Eq. 40's epsilon is capped at a
/// small fraction of the remaining Case-III window so coarse grids cannot
/// push the slope to the expensive Case-II edge. When the window itself is
/// degenerate — non-positive after rounding, or so narrow that base + eps
/// would not move past base in double precision — Eq. 36's *strict*
/// preference would silently break (the former code let eps go
/// non-positive here). Such intervals instead take a small positive
/// relative floor and are flagged in `degenerate_window`.
void candidate_recurrence(const effort::QuadraticEffort& psi, double delta,
                          std::size_t m, std::size_t k_max,
                          const WorkerIncentives& inc, bool cap_epsilon,
                          CandidateRecurrence& out);

/// Build ξ^(k) on the grid {0, δ, ..., mδ}. Requires 1 <= k <= m and psi
/// strictly increasing on [0, mδ] (throws ccd::ContractError otherwise).
/// `cap_epsilon = false` uses the paper's raw Eq. 40 epsilon instead of the
/// window-capped value — exposed for the ablation that demonstrates why the
/// cap is needed on coarse grids (see bench_ablation_epsilon and
/// EXPERIMENTS.md "Known deviations").
Contract build_candidate(const effort::QuadraticEffort& psi, double delta,
                         std::size_t m, std::size_t k,
                         const WorkerIncentives& inc,
                         CandidateBuildInfo* info = nullptr,
                         bool cap_epsilon = true);

}  // namespace ccd::contract
