// Vectorized per-worker resolve for the fleet design path.
//
// Every worker of one spec class shares the same weight-independent
// DesignTable; resolving a worker is then two per-k reductions over the
// class's tables — the Eq. 43 argmax of w * feedback_k - mu * pay_k and the
// Theorem 4.1 upper-bound max. With the class's per-k columns laid out
// contiguously (ClassTableau) and the workers' weights contiguous
// (FleetSoA), the AVX2 kernel resolves 16 workers per pass in four
// independent vectors, then what is left four at a time; a portable scalar
// loop with identical semantics serves every other build (the compiler
// autovectorizes it where it can) and a class's last one to three workers.
//
// The CPU picks the kernel: the AVX2 kernel is only compiled on x86-64
// GCC/Clang (per-function target attributes — no global -mavx2, so the rest
// of the library stays baseline-ISA) and is used only when the CPU reports
// AVX2. Both kernels use only multiplies, subtracts, compares, and maxima,
// and ccd_contract is compiled with -ffp-contract=off, so each lane
// performs the exact rounding sequence of the scalar resolve_design
// expressions on every target: results are bitwise-identical to
// design_contract whichever kernel runs.
#pragma once

#include <cstddef>
#include <string>

#include "contract/arena.hpp"
#include "contract/designer.hpp"

namespace ccd::contract {

/// True when the AVX2 kernel is compiled in and this CPU supports it.
bool simd_available();

/// The kernel resolve_class runs on this CPU: "avx2" or "portable".
std::string simd_kernel_name();

/// Weight-independent per-class columns the resolve reads, arena-backed
/// and contiguous per k. Valid until the arena is reset.
struct ClassTableau {
  std::size_t m = 0;   ///< intervals
  double mu = 0.0;     ///< compensation weight (key field, per class)
  const double* feedback = nullptr;     ///< response feedback per k
  const double* pay = nullptr;          ///< response compensation per k
  const double* ub_feedback = nullptr;  ///< psi(l delta), l = 1..m
  const double* ub_pay = nullptr;       ///< lemma43 lower pay, l = 1..m
  bool has_free_ride = false;           ///< omega > 0
  double free_ride_feedback = 0.0;      ///< psi(y_free) when omega > 0
};

/// Build the tableau for one class from its design table. `spec` is any
/// spec of the class (weight is ignored). Columns are computed with the
/// same expressions as resolve_design / theorem41_upper_bound so the
/// kernels reproduce the scalar values.
ClassTableau build_class_tableau(const SubproblemSpec& spec,
                                 const DesignTable& table,
                                 ScratchArena& arena);

/// Caller-allocated per-worker outputs of resolve_class (length >= count).
/// k_opt is the 1-based Eq. 43 argmax; exclusion (weight <= 0, or
/// requester_utility < 0) is applied by the caller.
struct ResolveOut {
  std::size_t* k_opt = nullptr;
  double* requester_utility = nullptr;
  double* upper_bound = nullptr;
};

/// Resolve `count` workers of one class (weights contiguous) against the
/// tableau. Runs the AVX2 kernel when simd_available(), else the portable
/// loop.
void resolve_class(const ClassTableau& tableau, const double* weights,
                   std::size_t count, const ResolveOut& out);

namespace detail {

void resolve_class_portable(const ClassTableau& tableau, const double* weights,
                            std::size_t count, const ResolveOut& out);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CCD_KSWEEP_HAVE_AVX2 1
bool avx2_supported();
void resolve_class_avx2(const ClassTableau& tableau, const double* weights,
                        std::size_t count, const ResolveOut& out);
#endif

}  // namespace detail

}  // namespace ccd::contract
