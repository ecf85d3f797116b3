#include "util/cancellation.hpp"

namespace ccd::util {

const char* to_string(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone: return "none";
    case CancelReason::kCancelled: return "cancelled";
    case CancelReason::kDeadline: return "deadline";
  }
  return "?";
}

Deadline Deadline::after(double seconds) {
  Deadline d;
  d.active_ = true;
  d.at_ = std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
  return d;
}

bool Deadline::expired() const {
  return active_ && std::chrono::steady_clock::now() >= at_;
}

CancellationToken::CancellationToken() : state_(std::make_shared<State>()) {}

void CancellationToken::request_cancel(CancelReason reason) const {
  // First cancellation wins the reason; later calls are no-ops.
  bool expected = false;
  if (state_->cancelled.compare_exchange_strong(expected, true,
                                                std::memory_order_relaxed)) {
    state_->reason.store(static_cast<int>(reason), std::memory_order_relaxed);
  }
}

void CancellationToken::set_deadline(Deadline deadline) {
  state_->deadline = deadline;
}

bool CancellationToken::poll() const {
  if (cancelled()) return true;
  if (state_->deadline.expired()) {
    request_cancel(CancelReason::kDeadline);
    return true;
  }
  return false;
}

}  // namespace ccd::util
