// Exact worker best response to a contract (the lower level of the bilevel
// program, Eq. 12/15/17).
//
// A worker with incentives (beta, omega) facing contract f and effort
// function psi maximizes
//
//   F(y) = f(psi(y)) - beta * y + omega * psi(y),
//
// honest workers being the omega = 0 special case (§IV-C). On each effort
// interval [(l-1)δ, lδ) the objective is smooth and concave, so the interval
// maximum is at an endpoint or at the stationary point
// psi'(y) = beta / (alpha_l + omega) (Lemma 4.1's three cases); the global
// best response is the argmax over all interval candidates, the
// participation point y = 0, and — for omega > 0 — the region beyond the
// last knot where the contract has saturated.
//
// best_response answers one contract: the worker physics and the audit.
// sweep_best_responses answers all m candidates of a k-sweep at once: they
// share every piece below their own knot, so one ascending scan serves the
// shared part and each candidate adds only its flat tail.
//
// Note on Lemma 4.1: because psi' is *decreasing*, Case I (non-increasing
// objective) holds iff the derivative is <= 0 at the *left* endpoint, i.e.
// alpha <= beta/psi'((l-1)δ) - omega, and Case II iff it is >= 0 at the
// *right* endpoint, i.e. alpha >= beta/psi'(lδ) - omega. The paper's
// statement prints these two boundaries swapped; we implement (and test)
// the consistent version.
#pragma once

#include <cstddef>
#include <vector>

#include "contract/contract.hpp"
#include "effort/effort_model.hpp"

namespace ccd::contract {

/// Worker incentive parameters (paper's beta and omega weights).
struct WorkerIncentives {
  double beta = 1.0;   ///< effort cost weight (> 0)
  double omega = 0.0;  ///< malicious feedback-influence weight (>= 0; 0 = honest)
};

/// Lemma 4.1's classification of a contract piece.
enum class SlopeCase {
  kNonIncreasing,  ///< Case I:   worker sits at the interval's left end
  kNonDecreasing,  ///< Case II:  worker pushes to the interval's right end
  kInterior,       ///< Case III: stationary point inside the interval
};

/// Classify the contract piece on [(l-1)δ, lδ) with slope `alpha`
/// (l is 1-based).
SlopeCase classify_piece(const effort::QuadraticEffort& psi,
                         const WorkerIncentives& inc, double alpha,
                         std::size_t l, double delta);

/// Case-III stationary effort for slope `alpha` (Eq. 31).
double stationary_effort(const effort::QuadraticEffort& psi,
                         const WorkerIncentives& inc, double alpha);

struct BestResponse {
  double effort = 0.0;
  double utility = 0.0;       ///< worker's utility at the best response
  double feedback = 0.0;      ///< psi(effort)
  double compensation = 0.0;  ///< contract payment at that feedback
  /// 1-based interval index containing the effort (0 when effort == 0,
  /// intervals()+1 when the worker overshoots past the last knot).
  std::size_t interval = 0;
};

/// Worker utility at a specific effort level.
double worker_utility(const Contract& contract,
                      const effort::QuadraticEffort& psi,
                      const WorkerIncentives& inc, double y);

/// Exact global best response. `effort_limit` caps the worker's feasible
/// effort (defaults to psi.y_peak(), beyond which more effort cannot raise
/// feedback and strictly loses utility).
BestResponse best_response(const Contract& contract,
                           const effort::QuadraticEffort& psi,
                           const WorkerIncentives& inc,
                           double effort_limit = -1.0);

/// Best responses to every candidate of one k-sweep (§IV-C) in one
/// ascending scan. Candidate k (1..m) is the contract with knots
/// `knots[0..m]` (d_l = psi(l delta)) that pays `prefix[0..k]` and stays
/// flat at prefix[k] past knot k. Every candidate shares the pieces below
/// its own knot, so their best responses share the scan up to that knot
/// and each finishes with only its flat tail.
///
/// out[k - 1] is bitwise-equal to best_response(ξ^(k), psi, inc), and
/// the call throws what building ξ^(1), best_response(ξ^(1)), ξ^(2), ...
/// in that order would throw first. `prefix` has m + 1 entries, like
/// `knots`.
void sweep_best_responses(const effort::QuadraticEffort& psi,
                          const WorkerIncentives& inc, double delta,
                          const std::vector<double>& knots,
                          const std::vector<double>& prefix,
                          std::vector<BestResponse>& out);

}  // namespace ccd::contract
