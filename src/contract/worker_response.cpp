#include "contract/worker_response.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace ccd::contract {
namespace {

// A later effort replaces the incumbent only when it is better by more
// than this, so ties keep the smallest effort (workers don't spend effort
// for nothing).
constexpr double kStrictGain = 1e-12;

void check_incentives(const WorkerIncentives& inc) {
  CCD_CHECK_MSG(inc.beta > 0.0, "worker beta must be positive");
  CCD_CHECK_MSG(inc.omega >= 0.0, "worker omega must be non-negative");
}

double resolve_limit(const effort::QuadraticEffort& psi, double effort_limit) {
  const double limit = effort_limit < 0.0 ? psi.y_peak() : effort_limit;
  CCD_CHECK_MSG(limit >= 0.0, "effort limit must be non-negative");
  return limit;
}

/// 1-based interval of an m-interval grid of width delta that contains
/// `effort`: 0 at zero effort, m + 1 past the last knot.
std::size_t response_interval(double effort, double delta, std::size_t m) {
  if (effort <= 0.0 || m == 0) return 0;
  if (effort > delta * static_cast<double>(m) + 1e-12) return m + 1;
  // floor with tolerance so that effort exactly at a knot counts in the
  // interval it closes.
  const std::size_t l =
      static_cast<std::size_t>(std::ceil(effort / delta - 1e-9));
  return std::clamp<std::size_t>(l, 1, m);
}

}  // namespace

double worker_utility(const Contract& contract,
                      const effort::QuadraticEffort& psi,
                      const WorkerIncentives& inc, double y) {
  CCD_CHECK_MSG(y >= 0.0, "worker effort must be non-negative");
  const double feedback = psi(y);
  return contract.pay(feedback) - inc.beta * y + inc.omega * feedback;
}

SlopeCase classify_piece(const effort::QuadraticEffort& psi,
                         const WorkerIncentives& inc, double alpha,
                         std::size_t l, double delta) {
  check_incentives(inc);
  CCD_CHECK_MSG(l >= 1, "interval index is 1-based");
  CCD_CHECK_MSG(delta > 0.0, "delta must be positive");
  const double lo = static_cast<double>(l - 1) * delta;
  const double hi = static_cast<double>(l) * delta;
  const double coeff = alpha + inc.omega;
  // dF/dy = (alpha + omega) psi'(y) - beta. With coeff > 0 it is decreasing
  // in y (psi' decreases); with coeff <= 0 it is everywhere < 0.
  const double d_lo = coeff * psi.derivative(lo) - inc.beta;
  const double d_hi = coeff * psi.derivative(hi) - inc.beta;
  if (d_lo <= 0.0) return SlopeCase::kNonIncreasing;
  if (d_hi >= 0.0) return SlopeCase::kNonDecreasing;
  return SlopeCase::kInterior;
}

double stationary_effort(const effort::QuadraticEffort& psi,
                         const WorkerIncentives& inc, double alpha) {
  check_incentives(inc);
  const double coeff = alpha + inc.omega;
  CCD_CHECK_MSG(coeff > 0.0,
                "stationary effort requires alpha + omega > 0");
  // psi'(y) = beta / (alpha + omega)  — Eq. 31 for the quadratic psi.
  return psi.derivative_inverse(inc.beta / coeff);
}

BestResponse best_response(const Contract& contract,
                           const effort::QuadraticEffort& psi,
                           const WorkerIncentives& inc, double effort_limit) {
  check_incentives(inc);
  const double limit = resolve_limit(psi, effort_limit);

  // Candidate efforts: interval endpoints, interior stationary points, the
  // participation point 0, and the saturated region past the last knot.
  std::vector<double> candidates{0.0};

  const std::size_t m = contract.intervals();
  double grid_end = 0.0;
  if (m > 0) {
    const double delta = contract.delta();
    grid_end = std::min(limit, delta * static_cast<double>(m));
    for (std::size_t l = 1; l <= m; ++l) {
      const double lo = delta * static_cast<double>(l - 1);
      const double hi = delta * static_cast<double>(l);
      if (lo > limit) break;
      candidates.push_back(std::min(lo, limit));
      candidates.push_back(std::min(hi, limit));
      const double alpha = contract.slope(l);
      if (classify_piece(psi, inc, alpha, l, delta) == SlopeCase::kInterior) {
        const double y_star = stationary_effort(psi, inc, alpha);
        if (y_star > lo && y_star < hi && y_star <= limit) {
          candidates.push_back(y_star);
        }
      }
    }
  }

  // Past the grid (or with a zero contract) the payment is constant, so the
  // objective reduces to omega * psi(y) - beta * y; its stationary point is
  // psi'(y) = beta / omega when omega > 0.
  if (limit > grid_end) {
    candidates.push_back(limit);
    if (inc.omega > 0.0) {
      const double y_star = psi.derivative_inverse(inc.beta / inc.omega);
      if (y_star > grid_end && y_star < limit) candidates.push_back(y_star);
    }
  }

  std::sort(candidates.begin(), candidates.end());
  BestResponse best;
  best.effort = 0.0;
  best.utility = worker_utility(contract, psi, inc, 0.0);
  for (const double y : candidates) {
    const double u = worker_utility(contract, psi, inc, y);
    if (u > best.utility + kStrictGain) {
      best.effort = y;
      best.utility = u;
    }
  }

  best.feedback = psi(best.effort);
  best.compensation = contract.pay(best.feedback);
  best.interval = response_interval(best.effort, contract.delta(), m);
  return best;
}

namespace {

/// Where Contract::pay places a feedback value on the knots: below d_0,
/// at or above d_m, or inside piece j (the upper_bound index) with
/// interpolation weight t. None of it reads the payments, so every
/// candidate of a sweep shares it.
struct PayPoint {
  enum Kind : std::uint8_t { kBelow, kAbove, kInside };
  Kind kind = kBelow;
  std::size_t j = 0;
  double t = 0.0;
  double one_minus_t = 1.0;
};

/// Contract::pay's search, tried first at piece `hint` and at its right
/// knot, where sweep points almost always fall. Knots strictly increase.
PayPoint locate(const std::vector<double>& d, double q, std::size_t hint) {
  const std::size_t m = d.size() - 1;
  PayPoint at;
  if (q <= d[0]) return at;
  if (q >= d[m]) {
    at.kind = PayPoint::kAbove;
    return at;
  }
  std::size_t j = 0;
  if (d[hint - 1] <= q && q < d[hint]) {
    j = hint;
  } else if (hint < m && d[hint] <= q && q < d[hint + 1]) {
    j = hint + 1;
  } else {
    j = static_cast<std::size_t>(std::upper_bound(d.begin(), d.end(), q) -
                                 d.begin());
  }
  at.kind = PayPoint::kInside;
  at.j = j;
  at.t = (q - d[j - 1]) / (d[j] - d[j - 1]);
  at.one_minus_t = 1.0 - at.t;
  return at;
}

/// Contract::pay of candidate k, whose payments are x_i = prefix[min(i, k)].
double pay_at(const PayPoint& at, const double* prefix, std::size_t k) {
  switch (at.kind) {
    case PayPoint::kBelow:
      return prefix[0];
    case PayPoint::kAbove:
      return prefix[k];
    case PayPoint::kInside:
      break;
  }
  return prefix[std::min(at.j - 1, k)] * at.one_minus_t +
         prefix[std::min(at.j, k)] * at.t;
}

/// One effort the scan evaluates, with the parts of worker_utility that do
/// not depend on the candidate.
struct ScanPoint {
  double effort = 0.0;
  double feedback = 0.0;
  double cost = 0.0;    ///< beta * effort
  double motive = 0.0;  ///< omega * feedback
  PayPoint at;
};

ScanPoint scan_point(const effort::QuadraticEffort& psi,
                     const WorkerIncentives& inc, const std::vector<double>& d,
                     double y, std::size_t hint) {
  ScanPoint p;
  p.effort = y;
  p.feedback = psi(y);
  p.cost = inc.beta * y;
  p.motive = inc.omega * p.feedback;
  p.at = locate(d, p.feedback, hint);
  return p;
}

/// best_response's running maximum, with the pay at its effort.
struct Incumbent {
  double effort = 0.0;
  double utility = 0.0;
  double feedback = 0.0;
  double pay = 0.0;

  void offer(const ScanPoint& p, double pay_here) {
    const double u = pay_here - p.cost + p.motive;  // worker_utility's order
    if (u > utility + kStrictGain) {
      effort = p.effort;
      utility = u;
      feedback = p.feedback;
      pay = pay_here;
    }
  }
};

struct SweepPiece {
  ScanPoint knot;      ///< min(l delta, limit)
  ScanPoint interior;  ///< Case-III point of the prefix slope alpha_l
  bool has_interior = false;
  /// Every candidate k < l pays exactly prefix[k] at `knot` (its flat tail
  /// at d_l: x_k * 1 + x_k * 0).
  bool knot_pays_flat = false;
  /// Scan state of every candidate >= l after this piece, priced with the
  /// full prefix.
  Incumbent after;
};

struct SweepScratch {
  std::vector<SweepPiece> pieces;  ///< index 0 = zero effort, 1..L
  /// First piece from which candidate k rescans with its own pay; 0 when
  /// the full-prefix scan is exact for it.
  std::vector<std::size_t> rescan_from;
};

}  // namespace

void sweep_best_responses(const effort::QuadraticEffort& psi,
                          const WorkerIncentives& inc, double delta,
                          const std::vector<double>& knots,
                          const std::vector<double>& prefix,
                          std::vector<BestResponse>& out) {
  CCD_CHECK_MSG(knots.size() >= 2 && prefix.size() == knots.size(),
                "sweep needs m + 1 >= 2 knots and as many prefix payments");
  const std::size_t m = knots.size() - 1;
  const double* d = knots.data();
  const double* x = prefix.data();

  // The first candidate the Contract constructor rejects. ξ^(k) holds every
  // knot and prefix[0..k]; its flat tail repeats prefix[k], which passes
  // wherever prefix[k] passed. The full prefix fails the same check at the
  // same index, so constructing it throws ξ^(k)'s error.
  std::size_t bad_contract = m + 1;
  bool knots_ok = delta > 0.0;
  for (std::size_t i = 1; i <= m && knots_ok; ++i) {
    knots_ok = knots[i] > knots[i - 1];
  }
  if (!knots_ok) bad_contract = 1;
  for (std::size_t i = 0; i <= m && bad_contract > m; ++i) {
    if (!(x[i] >= 0.0) || (i > 0 && !(x[i] >= x[i - 1]))) {
      bad_contract = std::max<std::size_t>(i, 1);
    }
  }
  const auto reject_contract = [&] {
    static_cast<void>(Contract(delta, knots, prefix));
  };
  if (bad_contract == 1) reject_contract();
  check_incentives(inc);
  const double limit = resolve_limit(psi, -1.0);

  // Pieces 1..reached lie at or below the limit; best_response stops at the
  // first piece that starts past it.
  std::size_t reached = 0;
  while (reached < m && delta * static_cast<double>(reached) <= limit) {
    ++reached;
  }

  thread_local SweepScratch scratch;
  std::vector<SweepPiece>& pieces = scratch.pieces;
  std::vector<std::size_t>& rescan_from = scratch.rescan_from;
  pieces.resize(reached + 1);
  rescan_from.assign(m + 1, 0);

  // Zero effort: feedback d_0, where every candidate pays prefix[0].
  const ScanPoint zero = scan_point(psi, inc, knots, 0.0, 1);
  Incumbent state;
  state.feedback = zero.feedback;
  state.pay = pay_at(zero.at, x, m);
  state.utility = state.pay - zero.cost + zero.motive;
  pieces[0].after = state;

  // Candidates in order, as building and answering each would run: ξ^(k)'s
  // contract check, then piece k, the one piece its best response adds to
  // the ones every earlier candidate already scanned without throwing.
  // Points of piece k are priced with the full prefix; a candidate in
  // k..j-1 whose pay differs there (a feedback at or past knot k) rescans.
  std::size_t flat_piece = 0;  ///< the piece holding the flat tail's point
  ScanPoint flat;
  const auto check_shared = [&](const ScanPoint& p, double full,
                                std::size_t l) {
    std::size_t last = 0;
    if (p.at.kind == PayPoint::kAbove) last = m - 1;
    if (p.at.kind == PayPoint::kInside && p.at.j > l) last = p.at.j - 1;
    for (std::size_t c = l; c <= last; ++c) {
      if (std::bit_cast<std::uint64_t>(pay_at(p.at, x, c)) !=
              std::bit_cast<std::uint64_t>(full) &&
          rescan_from[c] == 0) {
        rescan_from[c] = l;
      }
    }
  };
  for (std::size_t k = 1; k <= m; ++k) {
    if (k == bad_contract) reject_contract();
    if (k > reached) continue;
    const double lo = delta * static_cast<double>(k - 1);
    const double hi = delta * static_cast<double>(k);
    SweepPiece& piece = pieces[k];

    const double alpha = (x[k] - x[k - 1]) / (d[k] - d[k - 1]);
    piece.has_interior = false;
    if (classify_piece(psi, inc, alpha, k, delta) == SlopeCase::kInterior) {
      const double y_star = stationary_effort(psi, inc, alpha);
      if (y_star > lo && y_star < hi && y_star <= limit) {
        piece.interior = scan_point(psi, inc, knots, y_star, k);
        piece.has_interior = true;
      }
    }
    piece.knot = scan_point(psi, inc, knots, std::min(hi, limit), k);
    const PayPoint& at = piece.knot.at;
    piece.knot_pays_flat =
        at.kind == PayPoint::kAbove ||
        (at.kind == PayPoint::kInside && at.j >= k && at.t == 0.0);

    // A flat tail (slope +0) has its Case-III point in at most one piece.
    if (k >= 2 && flat_piece == 0 &&
        classify_piece(psi, inc, 0.0, k, delta) == SlopeCase::kInterior) {
      const double y_star = stationary_effort(psi, inc, 0.0);
      if (y_star > lo && y_star < hi && y_star <= limit) {
        flat = scan_point(psi, inc, knots, y_star, k);
        flat_piece = k;
      }
    }
    // ξ^(k)'s tail slope (x_k - x_k) / (d_l - d_{l-1}) is NaN when x_k is
    // infinite: case III to classify_piece, and stationary_effort throws
    // for it, as best_response(ξ^(k)) does at piece k + 1.
    if (k < reached && !std::isfinite(x[k])) {
      stationary_effort(psi, inc, x[k] - x[k]);
    }

    if (piece.has_interior) {
      const double full = pay_at(piece.interior.at, x, m);
      state.offer(piece.interior, full);
      check_shared(piece.interior, full, k);
    }
    const double full = pay_at(at, x, m);
    state.offer(piece.knot, full);
    check_shared(piece.knot, full, k);
    piece.after = state;
  }

  // Past the grid the pay is constant: the free-riding point
  // psi'(y) = beta / omega, then the limit.
  const double grid_end = std::min(limit, delta * static_cast<double>(m));
  ScanPoint past[2];
  std::size_t past_count = 0;
  if (limit > grid_end) {
    if (inc.omega > 0.0) {
      const double y_star = psi.derivative_inverse(inc.beta / inc.omega);
      if (y_star > grid_end && y_star < limit) {
        past[past_count++] = scan_point(psi, inc, knots, y_star, m);
      }
    }
    past[past_count++] = scan_point(psi, inc, knots, limit, m);
  }

  out.resize(m);
  for (std::size_t k = 1; k <= m; ++k) {
    const std::size_t top = std::min(k, reached);
    Incumbent best = pieces[top].after;
    if (rescan_from[k] != 0) {
      best = pieces[rescan_from[k] - 1].after;
      for (std::size_t l = rescan_from[k]; l <= top; ++l) {
        const SweepPiece& piece = pieces[l];
        if (piece.has_interior) {
          best.offer(piece.interior, pay_at(piece.interior.at, x, k));
        }
        best.offer(piece.knot, pay_at(piece.knot.at, x, k));
      }
    }
    // ξ^(k)'s flat tail, where it pays exactly x_k at every knot.
    for (std::size_t l = k + 1; l <= reached; ++l) {
      if (l == flat_piece) best.offer(flat, pay_at(flat.at, x, k));
      const SweepPiece& piece = pieces[l];
      best.offer(piece.knot, piece.knot_pays_flat
                                 ? x[k]
                                 : pay_at(piece.knot.at, x, k));
    }
    for (std::size_t i = 0; i < past_count; ++i) {
      best.offer(past[i], pay_at(past[i].at, x, k));
    }
    BestResponse& response = out[k - 1];
    response.effort = best.effort;
    response.utility = best.utility;
    response.feedback = best.feedback;
    response.compensation = best.pay;
    response.interval = response_interval(best.effort, delta, m);
  }
}

}  // namespace ccd::contract
