// Online model of one batched CPU inference server (the TensorFlow-Serving
// style baseline): queries are assigned in arrival order; a batch launches
// when full, or once its aggregation window has provably closed relative to
// the advancing simulation clock.
//
// The sched/ batched-CPU Backend adapter runs this state machine. Because
// a batch launches only once its composition can no longer change, the
// completions do not depend on when Flush is called: assigning every query
// up front and then calling Flush with final_flush = true yields the same
// completions as flushing as the clock advances (tests/sched_test.cpp
// gates the adapter against that offline reference).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "serving/serving_sim.hpp"

namespace microrec {

class OnlineBatchedServer {
 public:
  /// `latency_fn` is copied; it must be callable for batch sizes in
  /// [1, max_batch].
  OnlineBatchedServer(std::uint64_t max_batch, Nanoseconds timeout_ns,
                      BatchLatencyFn latency_fn)
      : max_batch_(max_batch),
        timeout_(timeout_ns),
        latency_fn_(std::move(latency_fn)) {}

  /// Queues one query; completions surface through Flush.
  void Assign(std::size_t query_id, Nanoseconds arrival_ns) {
    pending_.push_back({query_id, arrival_ns});
  }

  /// Launches every batch whose composition can no longer change given
  /// that all future assignments arrive at or after `now` (pass
  /// final_flush = true at end of input to drain unconditionally). Appends
  /// (query_id, completion) pairs to `completions`.
  void Flush(Nanoseconds now,
             std::vector<std::pair<std::size_t, Nanoseconds>>& completions,
             bool final_flush = false) {
    while (!pending_.empty()) {
      const Nanoseconds window_open =
          std::max(pending_.front().arrival, server_free_);
      const Nanoseconds window_close = window_open + timeout_;
      // Members: pending queries that arrived by window close.
      std::size_t count = 0;
      while (count < pending_.size() && count < max_batch_ &&
             pending_[count].arrival <= window_close) {
        ++count;
      }
      const bool full = count == max_batch_;
      // A non-full batch may still grow while future arrivals could fall
      // inside the window.
      if (!full && !final_flush && window_close >= now) return;
      const Nanoseconds launch =
          full ? std::max(window_open, pending_[count - 1].arrival)
               : window_close;
      if (!full && !final_flush && launch > now) return;
      const Nanoseconds done = launch + latency_fn_(count);
      for (std::size_t i = 0; i < count; ++i) {
        completions.emplace_back(pending_[i].query_id, done);
      }
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(count));
      server_free_ = done;
    }
  }

  /// Earliest `now` at which Flush could launch a batch: +inf with
  /// nothing queued, -inf once max_batch queries are (a full batch
  /// launches at any Flush), else the front window's close (a non-full
  /// batch launches once `now` passes it).
  Nanoseconds NextLaunchNs() const {
    if (pending_.empty()) return std::numeric_limits<Nanoseconds>::infinity();
    if (pending_.size() >= max_batch_) {
      return -std::numeric_limits<Nanoseconds>::infinity();
    }
    return std::max(pending_.front().arrival, server_free_) + timeout_;
  }

  /// Time the server finishes its last launched batch (0 before any).
  Nanoseconds server_free() const { return server_free_; }

  /// Queries assigned but not yet launched.
  std::size_t pending_queries() const { return pending_.size(); }

 private:
  struct Pending {
    std::size_t query_id;
    Nanoseconds arrival;
  };

  std::uint64_t max_batch_;
  Nanoseconds timeout_;
  BatchLatencyFn latency_fn_;
  std::vector<Pending> pending_;
  Nanoseconds server_free_ = 0.0;
};

}  // namespace microrec
