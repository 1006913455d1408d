#include "faults/retry.hpp"

#include <algorithm>
#include <cmath>

namespace microrec {

Status RetryPolicy::Validate() const {
  if (max_attempts == 0) {
    return Status::InvalidArgument("retry policy: max_attempts must be >= 1");
  }
  if (attempt_timeout_ns <= 0.0) {
    return Status::InvalidArgument(
        "retry policy: attempt_timeout_ns must be > 0");
  }
  if (initial_backoff_ns < 0.0 || max_backoff_ns < initial_backoff_ns) {
    return Status::InvalidArgument(
        "retry policy: need 0 <= initial_backoff_ns <= max_backoff_ns");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument(
        "retry policy: backoff_multiplier must be >= 1");
  }
  return Status::Ok();
}

Nanoseconds RetryPolicy::BackoffAfterAttempt(std::uint32_t attempt) const {
  MICROREC_CHECK(attempt >= 1);
  const double raw =
      initial_backoff_ns *
      std::pow(backoff_multiplier, static_cast<double>(attempt - 1));
  return std::min(raw, max_backoff_ns);
}

}  // namespace microrec
