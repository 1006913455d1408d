// Incremental state machine of one item-streaming MicroRec pipeline.
//
// Every simulation that models the accelerator's deep pipeline -- the
// sched/ pipeline and hot-cache backends, the update-aware and fault-aware
// simulators -- advances the same two numbers: the earliest time the next
// item may begin (one initiation interval after the previous start) and
// the per-item latency added on top of the start. Centralizing that
// arithmetic here means "the same pipeline" is the same floating-point
// expression everywhere (tests/sched_test.cpp gates the Backend adapter
// against the recurrence written out by hand).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/units.hpp"

namespace microrec {

class PipelineServer {
 public:
  PipelineServer(Nanoseconds item_latency_ns,
                 Nanoseconds initiation_interval_ns)
      : item_latency_ns_(item_latency_ns), ii_ns_(initiation_interval_ns) {}

  Nanoseconds item_latency_ns() const { return item_latency_ns_; }
  Nanoseconds initiation_interval_ns() const { return ii_ns_; }

  /// Earliest time the pipeline can begin a new item.
  Nanoseconds NextStart() const { return next_start_; }

  /// Streams `items` back-to-back items starting at max(arrival,
  /// NextStart()); returns the completion time of the last item. With
  /// items == 1 this is exactly the pre-refactor per-query arithmetic:
  /// completion = start + item latency, next start = start + interval.
  Nanoseconds Admit(Nanoseconds arrival_ns, std::uint64_t items = 1) {
    return AdmitWithLatency(arrival_ns, items, item_latency_ns_);
  }

  /// Same streaming arithmetic with a per-call item latency. The hot-cache
  /// and fault-degraded adapters vary the latency query by query (cache
  /// hits, degrade windows); the initiation interval is structural and
  /// never varies per call.
  Nanoseconds AdmitWithLatency(Nanoseconds arrival_ns, std::uint64_t items,
                               Nanoseconds item_latency_ns) {
    const Nanoseconds start = std::max(arrival_ns, next_start_);
    next_start_ = start + static_cast<double>(items) * ii_ns_;
    return start + static_cast<double>(items - 1) * ii_ns_ + item_latency_ns;
  }

 private:
  Nanoseconds item_latency_ns_;
  Nanoseconds ii_ns_;
  Nanoseconds next_start_ = 0.0;
};

}  // namespace microrec
