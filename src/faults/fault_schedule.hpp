// Deterministic fault timelines for the serving simulators.
//
// The paper's speedups assume a healthy platform: 32 HBM pseudo-channels,
// 2 DDR channels, and PCIe all at nominal latency. Production parameter
// servers treat partial memory failure as a design input, so this module
// models the platform's failure surface as an explicit, seeded schedule of
// windows: a channel serving slow (latency multiplier), a channel serving
// nothing (fail + recovery), a scale-out pipeline replica down, or the
// PCIe DMA path stalled. Every event is a closed-open interval
// [start_ns, end_ns), and schedules are either hand-built (structural
// what-if sweeps: "kill channels 0..k at t=0") or generated from Poisson
// failure/repair rates under a fixed seed, so runs replay exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace microrec {

/// What a fault event degrades.
enum class FaultKind {
  kChannelDegrade,  ///< bank `target` serves at `magnitude` x latency
  kChannelFail,     ///< bank `target` rejects all accesses
  kReplicaCrash,    ///< pipeline replica `target` accepts no queries
  kDmaStall,        ///< host PCIe DMA attempts hang until the window ends
};

const char* FaultKindName(FaultKind kind);

/// One fault window. `target` is a flat bank index for channel events, a
/// pipeline-replica index for crashes and a backend index for DMA stalls.
/// `magnitude` is the latency multiplier of a degrade (>= 1.0) and unused
/// otherwise.
struct FaultEvent {
  FaultKind kind = FaultKind::kChannelFail;
  Nanoseconds start_ns = 0.0;
  Nanoseconds end_ns = 0.0;
  std::uint32_t target = 0;
  double magnitude = 1.0;

  std::string ToString() const;
};

/// Forever, for permanent (structural) faults.
inline constexpr Nanoseconds kFaultNoRecovery = 1e18;

class FaultSchedule {
 public:
  /// Validates and appends one event: end > start >= 0, and magnitude >= 1
  /// for degrades (a multiplier below 1 would make a fault a speedup).
  Status Add(const FaultEvent& event);

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // ---- Point queries (all linear in the event count; schedules are small
  // and the simulators ask per query, not per beat) ----

  /// False while a kChannelFail window covers (bank, now).
  bool BankAvailable(std::uint32_t bank, Nanoseconds now) const;

  /// Product of all kChannelDegrade multipliers covering (bank, now);
  /// exactly 1.0 when none do.
  double BankLatencyMultiplier(std::uint32_t bank, Nanoseconds now) const;

  /// False while a kReplicaCrash window covers (replica, now).
  bool ReplicaAlive(std::uint32_t replica, Nanoseconds now) const;

  /// End of the latest kDmaStall window with this `target` covering `now`,
  /// or `now` itself when none does. The scheduler's per-backend fault
  /// models key kDmaStall windows by backend index.
  Nanoseconds StallEnd(std::uint32_t target, Nanoseconds now) const;

  /// Structural helper: the given banks fail at `from_ns` and never
  /// recover. The shape behind "what does losing k channels cost?" sweeps.
  static FaultSchedule FailChannels(const std::vector<std::uint32_t>& banks,
                                    Nanoseconds from_ns = 0.0);

 private:
  std::vector<FaultEvent> events_;
};

/// Poisson fault-process parameters. A category with rate 0 emits nothing;
/// the all-zero default generates an empty schedule. Rates are per target
/// (per channel / per replica), outage durations are exponential with the
/// given mean, and degrade multipliers are uniform in [min, max].
struct FaultScheduleConfig {
  std::uint64_t seed = 1;
  Nanoseconds horizon_ns = 0.0;  ///< events only start inside [0, horizon)

  std::uint32_t num_banks = 0;
  double channel_fail_per_s = 0.0;
  Nanoseconds channel_outage_mean_ns = Milliseconds(50);
  double channel_degrade_per_s = 0.0;
  Nanoseconds channel_degrade_mean_ns = Milliseconds(20);
  double degrade_multiplier_min = 1.5;
  double degrade_multiplier_max = 4.0;

  std::uint32_t num_replicas = 0;
  double replica_crash_per_s = 0.0;
  Nanoseconds replica_outage_mean_ns = Milliseconds(100);

  double dma_stall_per_s = 0.0;
  Nanoseconds dma_stall_mean_ns = Microseconds(500);
};

/// Expands the config into a concrete schedule. Deterministic: the same
/// config (seed included) always yields the identical event list, and each
/// (kind, target) stream draws from its own sub-seeded generator so adding
/// a category never perturbs the others.
StatusOr<FaultSchedule> GenerateFaultSchedule(const FaultScheduleConfig& config);

}  // namespace microrec
