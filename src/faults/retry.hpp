// Deterministic timeout / exponential-backoff retry policy.
//
// The fault-tolerant scheduler (sched/ft_scheduler) re-admits a query to a
// surviving backend under this policy. It has three knobs: how long to
// wait on one attempt, how long to sleep between attempts, and when to
// give up. No jitter: backoffs are a pure function of the attempt number,
// so timing bounds are exactly testable.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "common/units.hpp"

namespace microrec {

/// Exponential-backoff retry policy for one logical operation.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;
  /// An attempt that has not completed after this long is abandoned.
  Nanoseconds attempt_timeout_ns = Microseconds(50);
  /// Backoff slept after the k-th failed attempt (k = 1, 2, ...):
  /// min(initial * multiplier^(k-1), max).
  Nanoseconds initial_backoff_ns = Microseconds(10);
  double backoff_multiplier = 2.0;
  Nanoseconds max_backoff_ns = Milliseconds(1);

  Status Validate() const;
  Nanoseconds BackoffAfterAttempt(std::uint32_t attempt) const;
};

}  // namespace microrec
