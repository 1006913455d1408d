#include "memsim/channel_sim.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace microrec {

ChannelSim::ChannelSim(ChannelTiming timing, double overlap)
    : timing_(timing), overlap_(overlap) {
  MICROREC_CHECK(overlap >= 0.0 && overlap < 1.0);
}

MemCompletion ChannelSim::Serve(const MemRequest& request) {
  MICROREC_CHECK(request.arrival_ns >= last_arrival_ns_);
  MICROREC_CHECK(request.latency_scale >= 1.0);
  last_arrival_ns_ = request.arrival_ns;

  // AccessLatency is already closed-form over beats (ceil-divide, no
  // per-beat loop); evaluate it once and derive both the queued and idle
  // service times from the same value -- bit-identical to computing each
  // from scratch, half the arithmetic on the hottest call in the codebase.
  const Nanoseconds full_latency = timing_.AccessLatency(request.bytes);
  const Nanoseconds service =
      (full_latency - overlap_ * timing_.base_ns) * request.latency_scale;
  Nanoseconds start = std::max(request.arrival_ns, free_at_ns_);
  // Refresh: an access that would begin inside a refresh window (every
  // interval_ns the channel is blocked for duration_ns) defers to the
  // window's end.
  if (timing_.refresh.enabled()) {
    const Nanoseconds interval = timing_.refresh.interval_ns;
    const auto window = static_cast<std::uint64_t>(start / interval);
    if (window >= 1) {
      const Nanoseconds window_start = static_cast<double>(window) * interval;
      const Nanoseconds window_end =
          window_start + timing_.refresh.duration_ns;
      if (start < window_end) start = window_end;
    }
  }
  // The overlap credit only applies when the request actually queued behind
  // a previous one (its initiation can be hidden); an idle channel pays the
  // full base latency.
  const bool queued = free_at_ns_ > request.arrival_ns;
  const Nanoseconds effective_service =
      queued ? service : full_latency * request.latency_scale;

  MemCompletion done;
  done.tag = request.tag;
  done.start_ns = start;
  done.completion_ns = start + effective_service;
  done.queue_delay_ns = start - request.arrival_ns;

  free_at_ns_ = done.completion_ns;
  stats_.accesses += 1;
  stats_.bytes_read += request.bytes;
  stats_.busy_ns += effective_service;
  stats_.last_completion_ns = done.completion_ns;
  return done;
}

void ChannelSim::Reset() {
  free_at_ns_ = 0.0;
  last_arrival_ns_ = 0.0;
  stats_ = ChannelStats{};
}

}  // namespace microrec
