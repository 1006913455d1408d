// Availability-aware failover routing over a ReplicationPlan.
//
// Healthy, a table's lookups rotate over its primary replicas -- the
// placement the round model priced. When a channel fails, the lookups that
// would have landed on it re-route to the table's surviving replicas
// (primaries first, then availability spares), capped at the primary count
// so spares substitute for dead primaries instead of quietly improving the
// healthy round. Fewer survivors than primaries collapses the single-round
// schedule into a multi-round one (the degraded mode the paper's section
// 5.4.2 analysis predicts); zero survivors means the lookup is *shed* and
// reported, never silently dropped.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "faults/fault_schedule.hpp"
#include "memsim/dram_timing.hpp"
#include "memsim/hybrid_memory.hpp"
#include "placement/replication.hpp"

namespace microrec {

/// One inference's lookups after failover routing.
struct RoutedLookups {
  std::vector<BankAccess> accesses;     ///< every access targets a live bank
  std::uint64_t shed_lookups = 0;       ///< no live replica anywhere
  std::uint32_t unservable_tables = 0;  ///< tables with zero live replicas
  std::uint32_t rounds = 0;  ///< max accesses routed to one DRAM bank

  bool fully_servable() const { return unservable_tables == 0; }
};

class FailoverRouter {
 public:
  /// Neither pointer is owned. `schedule` may be nullptr (always-healthy
  /// router); `plan` must outlive the router.
  FailoverRouter(const ReplicationPlan* plan, const FaultSchedule* schedule);

  /// Routes `lookups_per_table` lookups per table at time `now`. With a
  /// null/empty schedule this reproduces ReplicationPlan::ToBankAccesses
  /// exactly (access-for-access), so the healthy path costs nothing.
  RoutedLookups Route(std::uint32_t lookups_per_table, Nanoseconds now) const;

  /// Idle-system latency of the routed batch under the schedule's degrade
  /// multipliers: the largest per-bank sum of multiplied access latencies
  /// (the fault-aware RoundLatencyModel). Shed lookups contribute nothing;
  /// check RoutedLookups::fully_servable via Route if that matters.
  Nanoseconds DegradedLookupLatency(std::uint32_t lookups_per_table,
                                    const MemoryPlatformSpec& platform,
                                    Nanoseconds now) const;

  const ReplicationPlan& plan() const { return *plan_; }

 private:
  const ReplicationPlan* plan_;
  const FaultSchedule* schedule_;
};

}  // namespace microrec
