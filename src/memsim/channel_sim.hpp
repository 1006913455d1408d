// Event-driven single-channel memory simulator.
//
// Models one HBM pseudo-channel / DDR channel / on-chip bank as a FIFO
// server: requests are served in arrival order and each occupies the channel
// for base_ns + beats * beat_ns. An optional overlap factor lets the next
// request's initiation overlap the tail of the current transfer, which we
// use in ablations; the paper-calibrated default is full serialization
// (overlap 0), which is what the published round-multiples imply.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "memsim/dram_timing.hpp"

namespace microrec {

/// One read request against a channel.
struct MemRequest {
  Nanoseconds arrival_ns = 0.0;
  Bytes bytes = 0;
  std::uint64_t tag = 0;  ///< caller-defined id (e.g. table index)
  /// Service-time multiplier (>= 1.0) for a degraded channel; 1.0 is the
  /// healthy default and is exactly cost-free (the service time is
  /// multiplied by 1.0, which is an identity on IEEE doubles).
  double latency_scale = 1.0;
};

/// Result of serving one request.
struct MemCompletion {
  std::uint64_t tag = 0;
  Nanoseconds start_ns = 0.0;       ///< when the channel began serving it
  Nanoseconds completion_ns = 0.0;  ///< when the last beat arrived
  Nanoseconds queue_delay_ns = 0.0; ///< start - arrival
};

/// Aggregate utilisation counters for one channel.
struct ChannelStats {
  std::uint64_t accesses = 0;
  Bytes bytes_read = 0;
  Nanoseconds busy_ns = 0.0;
  Nanoseconds last_completion_ns = 0.0;
};

class ChannelSim {
 public:
  /// `overlap` in [0,1): fraction of the next request's base latency that
  /// can be hidden under the current request's transfer.
  explicit ChannelSim(ChannelTiming timing, double overlap = 0.0);

  const ChannelTiming& timing() const { return timing_; }
  const ChannelStats& stats() const { return stats_; }

  /// Serves one request; the channel is busy until the returned
  /// completion_ns. Requests must be submitted in nondecreasing arrival
  /// order.
  MemCompletion Serve(const MemRequest& request);

  /// Forgets all state (time returns to 0); stats are reset too.
  void Reset();

  /// Time at which the channel next becomes free.
  Nanoseconds free_at_ns() const { return free_at_ns_; }

 private:
  ChannelTiming timing_;
  double overlap_;
  Nanoseconds free_at_ns_ = 0.0;
  Nanoseconds last_arrival_ns_ = 0.0;
  ChannelStats stats_;
};

}  // namespace microrec
