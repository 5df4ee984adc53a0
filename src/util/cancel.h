// Cooperative cancellation/deadline token for solver calls.
//
// A CancelToken pairs an atomic cancel flag with an optional deadline
// measured against an injectable monotonic clock. Solvers poll
// `stopRequested()` at iteration boundaries (outer rounds, node
// expansions, per-task loops) and return early with partial work instead
// of being killed; nothing here preempts a thread. The injectable clock
// is what makes wall-clock timeout behaviour testable: a fake clock
// advanced by the test turns "the solver ran past its deadline" into a
// deterministic event.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <utility>

namespace dsct {

/// Monotonic clock source, seconds since an arbitrary epoch. Must be
/// callable from multiple threads concurrently (a sharded solve's cells
/// poll one token from several pool workers at once).
using ClockFn = std::function<double()>;

/// The default wall clock: std::chrono::steady_clock, in seconds.
inline double steadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deadline + cancel flag polled cooperatively by solvers.
///
/// Three states:
///  - default-constructed: no deadline, never expires (cancel still works);
///  - `CancelToken(budget)` with budget > 0: expires `budget` seconds after
///    construction (per the supplied clock);
///  - `CancelToken(budget)` with budget <= 0: already expired — the caller
///    had no time left to grant. This is distinct from "no deadline"; use
///    the default constructor for unlimited.
class CancelToken {
 public:
  CancelToken() = default;

  explicit CancelToken(double budgetSeconds, ClockFn clock = {})
      : clock_(std::move(clock)), hasDeadline_(true) {
    const double now = clock_ ? clock_() : steadyNowSeconds();
    deadline_ = budgetSeconds > 0.0
                    ? now + budgetSeconds
                    : -std::numeric_limits<double>::infinity();
  }

  /// Flip the cancel flag. Safe from any thread; sticky.
  void requestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelRequested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool hasDeadline() const { return hasDeadline_; }

  /// True once the deadline has passed. False forever when no deadline.
  bool expired() const {
    if (!hasDeadline_) return false;
    return (clock_ ? clock_() : steadyNowSeconds()) >= deadline_;
  }

  /// The one predicate solvers poll: cancelled or past the deadline.
  bool stopRequested() const { return cancelRequested() || expired(); }

  /// Seconds until the deadline; +infinity when there is none. May be
  /// negative once expired (callers use <= 0 as "nothing left to grant").
  double remainingSeconds() const {
    if (!hasDeadline_) return std::numeric_limits<double>::infinity();
    return deadline_ - (clock_ ? clock_() : steadyNowSeconds());
  }

 private:
  ClockFn clock_;  ///< empty => steadyNowSeconds
  double deadline_ = 0.0;
  bool hasDeadline_ = false;
  std::atomic<bool> cancelled_{false};
};

/// Poll helper for optional token pointers threaded through option structs:
/// a null token never stops.
inline bool stopRequested(const CancelToken* token) {
  return token != nullptr && token->stopRequested();
}

}  // namespace dsct
