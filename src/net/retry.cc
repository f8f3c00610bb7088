#include "net/retry.h"

#include <algorithm>

namespace fkd {
namespace net {

int64_t RetryPolicy::BackoffUs(int attempt) const {
  if (attempt <= 0) return 0;
  // Shift-with-saturation: 2^62us is ~146k years, far beyond any cap, so
  // clamp the exponent instead of overflowing.
  const int shift = std::min(attempt - 1, 40);
  const int64_t raw = options_.backoff_base_us << shift;
  const int64_t capped =
      (raw < 0 || raw > options_.backoff_max_us) ? options_.backoff_max_us : raw;
  return capped;
}

int64_t RetryPolicy::NextDelayUs(int attempt, int64_t now_us,
                                 int64_t deadline_us) {
  if (attempt >= options_.max_attempts) return -1;
  int64_t delay = BackoffUs(attempt);
  if (options_.jitter > 0.0 && delay > 0) {
    const double jitter = std::clamp(options_.jitter, 0.0, 1.0);
    // Uniform in [delay * (1 - jitter), delay]; never above the
    // deterministic envelope so the deadline check below is exact.
    const double lo = static_cast<double>(delay) * (1.0 - jitter);
    delay = static_cast<int64_t>(rng_.Uniform(lo, static_cast<double>(delay)));
  }
  if (deadline_us > 0) {
    const int64_t wake_us = now_us + delay;
    if (wake_us + kMinUsefulBudgetUs >= deadline_us) return -1;
  }
  return delay;
}

}  // namespace net
}  // namespace fkd
