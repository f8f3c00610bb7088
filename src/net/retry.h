#ifndef FKD_NET_RETRY_H_
#define FKD_NET_RETRY_H_

#include <cstdint>

#include "common/rng.h"

namespace fkd {
namespace net {

/// Retry discipline for the resilient NetClient. Pure state-machine math —
/// no clocks, no sleeps, no sockets — so unit tests pass the time in and
/// assert exact microsecond schedules.
struct RetryOptions {
  /// Total tries including the first (1 = no retries).
  int max_attempts = 4;

  /// Backoff before retry k (k >= 1) is base * 2^(k-1), capped at max,
  /// then jittered. Defaults: 1ms, 2ms, 4ms ... capped at 250ms.
  int64_t backoff_base_us = 1000;
  int64_t backoff_max_us = 250000;

  /// Jitter fraction in [0, 1]: the jittered delay is uniform in
  /// [delay * (1 - jitter), delay]. "Decorrelated-enough" without ever
  /// exceeding the deterministic envelope, so deadline-bounded truncation
  /// can reason about the worst case.
  double jitter = 0.5;

  /// Seed for the jitter stream. Same seed + same attempt sequence =>
  /// same delays, which is what makes chaos drills replayable.
  uint64_t seed = 0x9E3779B97F4A7C15ULL;
};

/// Computes deterministic, deadline-bounded retry delays.
///
/// Not thread-safe: each connection/client owns one instance (the jitter
/// stream is part of the per-client deterministic schedule).
class RetryPolicy {
 public:
  explicit RetryPolicy(const RetryOptions& options = {})
      : options_(options), rng_(options.seed) {}

  const RetryOptions& options() const { return options_; }

  /// Un-jittered exponential backoff before retry `attempt` (1-based:
  /// attempt 1 is the first *retry*). Returns 0 for attempt <= 0.
  int64_t BackoffUs(int attempt) const;

  /// Decides whether retry `attempt` (1-based) may run, and with what
  /// delay, given the current monotonic time and the request's absolute
  /// monotonic deadline (0 = no deadline).
  ///
  /// Returns the jittered delay in microseconds (>= 0) when the retry is
  /// allowed, or -1 when it is not: attempts exhausted, or the delay plus
  /// a minimum useful remaining budget would overrun the deadline. A retry
  /// that would wake up with (almost) no budget left is pointless work the
  /// server would immediately shed, so it is truncated here instead.
  int64_t NextDelayUs(int attempt, int64_t now_us, int64_t deadline_us);

  /// Smallest remaining budget (after the backoff sleep) that still makes
  /// a retry worth sending. Exposed for tests.
  static constexpr int64_t kMinUsefulBudgetUs = 500;

 private:
  RetryOptions options_;
  Rng rng_;
};

}  // namespace net
}  // namespace fkd

#endif  // FKD_NET_RETRY_H_
