#include "faults/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.hpp"

namespace microrec {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kChannelDegrade:
      return "channel-degrade";
    case FaultKind::kChannelFail:
      return "channel-fail";
    case FaultKind::kReplicaCrash:
      return "replica-crash";
    case FaultKind::kDmaStall:
      return "dma-stall";
  }
  return "unknown";
}

std::string FaultEvent::ToString() const {
  std::ostringstream os;
  os << FaultKindName(kind) << " target=" << target << " ["
     << FormatNanos(start_ns) << ", "
     << (end_ns >= kFaultNoRecovery ? std::string("never")
                                    : FormatNanos(end_ns))
     << ")";
  if (kind == FaultKind::kChannelDegrade) os << " x" << magnitude;
  return os.str();
}

Status FaultSchedule::Add(const FaultEvent& event) {
  if (event.start_ns < 0.0) {
    return Status::InvalidArgument("fault event starts before t=0");
  }
  if (event.end_ns <= event.start_ns) {
    return Status::InvalidArgument("fault event window is empty: " +
                                   event.ToString());
  }
  if (event.kind == FaultKind::kChannelDegrade && event.magnitude < 1.0) {
    return Status::InvalidArgument(
        "degrade multiplier below 1.0 would be a speedup: " +
        event.ToString());
  }
  events_.push_back(event);
  return Status::Ok();
}

namespace {

inline bool Covers(const FaultEvent& e, Nanoseconds now) {
  return e.start_ns <= now && now < e.end_ns;
}

}  // namespace

bool FaultSchedule::BankAvailable(std::uint32_t bank, Nanoseconds now) const {
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kChannelFail && e.target == bank &&
        Covers(e, now)) {
      return false;
    }
  }
  return true;
}

double FaultSchedule::BankLatencyMultiplier(std::uint32_t bank,
                                            Nanoseconds now) const {
  double multiplier = 1.0;
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kChannelDegrade && e.target == bank &&
        Covers(e, now)) {
      multiplier *= e.magnitude;
    }
  }
  return multiplier;
}

bool FaultSchedule::ReplicaAlive(std::uint32_t replica,
                                 Nanoseconds now) const {
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kReplicaCrash && e.target == replica &&
        Covers(e, now)) {
      return false;
    }
  }
  return true;
}

Nanoseconds FaultSchedule::StallEnd(std::uint32_t target,
                                    Nanoseconds now) const {
  Nanoseconds end = now;
  for (const auto& e : events_) {
    if (e.kind == FaultKind::kDmaStall && e.target == target &&
        Covers(e, now)) {
      end = std::max(end, e.end_ns);
    }
  }
  return end;
}

FaultSchedule FaultSchedule::FailChannels(
    const std::vector<std::uint32_t>& banks, Nanoseconds from_ns) {
  FaultSchedule schedule;
  for (std::uint32_t bank : banks) {
    FaultEvent event;
    event.kind = FaultKind::kChannelFail;
    event.start_ns = from_ns;
    event.end_ns = kFaultNoRecovery;
    event.target = bank;
    // Structural helper: inputs are by-construction valid.
    MICROREC_CHECK(schedule.Add(event).ok());
  }
  return schedule;
}

namespace {

/// Draws exp-distributed gaps / durations from a per-stream generator and
/// appends alternating up/down windows until `horizon`.
void EmitPoissonWindows(FaultKind kind, std::uint32_t target,
                        double events_per_s, Nanoseconds mean_duration_ns,
                        const FaultScheduleConfig& config, Rng& rng,
                        FaultSchedule& schedule) {
  if (events_per_s <= 0.0) return;
  const double mean_gap_ns = kNanosPerSecond / events_per_s;
  Nanoseconds t = 0.0;
  for (;;) {
    const double u = std::max(rng.NextDouble(), 1e-12);
    t += -std::log(u) * mean_gap_ns;
    if (t >= config.horizon_ns) return;
    const double v = std::max(rng.NextDouble(), 1e-12);
    const Nanoseconds duration =
        std::max(1.0, -std::log(v) * mean_duration_ns);
    FaultEvent event;
    event.kind = kind;
    event.start_ns = t;
    event.end_ns = t + duration;
    event.target = target;
    if (kind == FaultKind::kChannelDegrade) {
      event.magnitude = config.degrade_multiplier_min +
                        rng.NextDouble() * (config.degrade_multiplier_max -
                                            config.degrade_multiplier_min);
    }
    MICROREC_CHECK(schedule.Add(event).ok());
    t += duration;  // a target cannot re-fail while already down
  }
}

/// Splits the master seed into an independent stream per (kind, target) so
/// enabling one fault category never reshuffles another's draws.
Rng SubRng(std::uint64_t seed, FaultKind kind, std::uint32_t target) {
  return Rng(seed ^ (static_cast<std::uint64_t>(kind) + 1) * 0x9E3779B97F4A7C15ull ^
             (static_cast<std::uint64_t>(target) + 1) * 0xBF58476D1CE4E5B9ull);
}

}  // namespace

StatusOr<FaultSchedule> GenerateFaultSchedule(
    const FaultScheduleConfig& config) {
  if (config.horizon_ns < 0.0) {
    return Status::InvalidArgument("fault horizon must be >= 0");
  }
  if (config.degrade_multiplier_min < 1.0 ||
      config.degrade_multiplier_max < config.degrade_multiplier_min) {
    return Status::InvalidArgument(
        "degrade multipliers must satisfy 1 <= min <= max");
  }
  if ((config.channel_fail_per_s > 0.0 || config.channel_degrade_per_s > 0.0) &&
      config.num_banks == 0) {
    return Status::InvalidArgument(
        "channel fault rates require num_banks > 0");
  }
  if (config.replica_crash_per_s > 0.0 && config.num_replicas == 0) {
    return Status::InvalidArgument(
        "replica crash rate requires num_replicas > 0");
  }

  FaultSchedule schedule;
  for (std::uint32_t b = 0; b < config.num_banks; ++b) {
    Rng fail_rng = SubRng(config.seed, FaultKind::kChannelFail, b);
    EmitPoissonWindows(FaultKind::kChannelFail, b, config.channel_fail_per_s,
                       config.channel_outage_mean_ns, config, fail_rng,
                       schedule);
    Rng degrade_rng = SubRng(config.seed, FaultKind::kChannelDegrade, b);
    EmitPoissonWindows(FaultKind::kChannelDegrade, b,
                       config.channel_degrade_per_s,
                       config.channel_degrade_mean_ns, config, degrade_rng,
                       schedule);
  }
  for (std::uint32_t r = 0; r < config.num_replicas; ++r) {
    Rng rng = SubRng(config.seed, FaultKind::kReplicaCrash, r);
    EmitPoissonWindows(FaultKind::kReplicaCrash, r, config.replica_crash_per_s,
                       config.replica_outage_mean_ns, config, rng, schedule);
  }
  {
    Rng rng = SubRng(config.seed, FaultKind::kDmaStall, 0);
    EmitPoissonWindows(FaultKind::kDmaStall, 0, config.dma_stall_per_s,
                       config.dma_stall_mean_ns, config, rng, schedule);
  }
  return schedule;
}

}  // namespace microrec
