#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace spider::sim {

/// Why a run was asked to stop. kNone means the token never tripped.
enum class CancelReason : int {
  kNone = 0,
  kCancelled = 1,         ///< explicit request (client gone, operator stop)
  kDeadlineExceeded = 2,  ///< armed wall-clock deadline passed
};

const char* to_string(CancelReason reason);

/// Cooperative cancellation + wall-clock deadline token.
///
/// A token is shared between the party that bounds a run (server worker,
/// signal handler, campaign client) and the simulator executing it: the
/// simulator polls `should_stop()` every few thousand events and returns
/// early when the token trips, leaving the run's partial state harvestable.
/// Polling never touches simulation state, so a run that completes is
/// byte-identical whether or not a token was installed (pinned by tests).
///
/// The trip is set-once (first reason wins) and every member is lock-free,
/// so tokens may be tripped from signal handlers and other threads while
/// the simulator thread polls. An armed deadline is enforced by whoever
/// polls `should_stop()`: it trips the token on the same compare-and-swap
/// as `request_cancel()`, so concurrent pollers (every shard of a
/// formation) and a concurrent cancel agree on one reason.
class CancelToken {
 public:
  CancelToken() = default;

  /// Arms (or re-arms) the deadline `after` from now. Zero or negative
  /// durations trip on the next poll.
  void arm_deadline_after(std::chrono::nanoseconds after) {
    deadline_ns_.store(now_ns() + after.count(), std::memory_order_relaxed);
  }

  /// Trips the token with `reason`. Returns true when this call performed
  /// the (only) trip; later calls are no-ops so the first reason sticks.
  bool request_cancel(CancelReason reason = CancelReason::kCancelled) {
    int expected = 0;
    return state_.compare_exchange_strong(expected, static_cast<int>(reason),
                                          std::memory_order_relaxed);
  }

  /// True once the token has tripped. Does not read the clock, so it is
  /// safe in signal handlers; an expired deadline shows here only after
  /// a `should_stop()` poll tripped it.
  bool cancel_requested() const {
    return state_.load(std::memory_order_relaxed) != 0;
  }

  /// The poll: true when the token has tripped, tripping it first
  /// (kDeadlineExceeded) when the armed deadline has passed.
  bool should_stop() {
    if (state_.load(std::memory_order_relaxed) != 0) return true;
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == kNoDeadline || now_ns() < d) return false;
    request_cancel(CancelReason::kDeadlineExceeded);
    return true;
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(state_.load(std::memory_order_relaxed));
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  std::atomic<int> state_{0};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace spider::sim
