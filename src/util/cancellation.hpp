// Cooperative cancellation and deadlines for long-running work.
//
// A CancellationToken is a cheap, copyable handle to shared stop state.
// Producers call request_cancel() (or arm a Deadline); workers poll. Two
// polling tiers keep the hot path essentially free:
//
//  * cancelled() — one relaxed atomic load through a stable pointer. This
//    is the per-iteration check for hot loops (the solve fan-out, a
//    parallel_for body); it never reads the clock. Cost is on the order of
//    the disarmed-metrics branch (~1-2 ns, benchmarked in bench_perf).
//  * poll() — additionally reads the steady clock and flips the token to
//    cancelled (reason kDeadline) once the armed deadline has passed. Call
//    it at coarse boundaries only: per pipeline stage, per simulation
//    round, per parallel_for chunk, per k-sweep.
//
// Cancellation is cooperative and silent: nothing throws on its own.
// Checkpoints in the code observe the token, stop starting new work, and
// leave the caller to render a well-formed partial result (see
// core::run_pipeline and core::StackelbergSimulator::run). Sites that have
// no partial result to return throw CancelledError (ErrorCode::kDeadline,
// ccdctl exit code 6) instead.
//
// Tokens are handed through the library as `const CancellationToken*`
// (null = run to completion) so the un-cancellable path stays branch-free
// at construction sites and nothing allocates when durability is off.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace ccd::util {

/// Why a token fired.
enum class CancelReason : int {
  kNone = 0,      ///< not cancelled
  kCancelled = 1, ///< explicit request_cancel()
  kDeadline = 2,  ///< armed deadline expired
};

const char* to_string(CancelReason reason);

/// A wall-clock budget on the steady clock. Default-constructed deadlines
/// are inactive (never expire).
class Deadline {
 public:
  Deadline() = default;

  /// Expires `seconds` from now (negative or zero: already expired).
  static Deadline after(double seconds);

  /// True when active and the steady clock has passed the deadline.
  bool expired() const;

 private:
  bool active_ = false;
  std::chrono::steady_clock::time_point at_{};
};

class CancellationToken {
 public:
  /// A fresh, un-cancelled token with no deadline.
  CancellationToken();

  /// Flip the token to cancelled. Idempotent; the first reason wins.
  void request_cancel(CancelReason reason = CancelReason::kCancelled) const;

  /// Arm (or replace) the deadline. Call before sharing the token with
  /// workers: the deadline itself is not synchronized, only the cancelled
  /// flag it eventually flips.
  void set_deadline(Deadline deadline);

  /// Hot-path check: one relaxed load, never reads the clock. A deadline
  /// only becomes visible here after some thread has poll()ed past it.
  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  /// Coarse-granularity check: also reads the clock and latches deadline
  /// expiry into the cancelled flag. Returns cancelled().
  bool poll() const;

  /// Why the token fired (kNone while not cancelled).
  CancelReason reason() const {
    return static_cast<CancelReason>(
        state_->reason.load(std::memory_order_relaxed));
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<int> reason{static_cast<int>(CancelReason::kNone)};
    Deadline deadline;
  };
  std::shared_ptr<State> state_;
};

}  // namespace ccd::util
