// The fault sweep shared by `microrec fault-sweep` and
// bench_ablation_faults: what does losing k HBM channels cost at table
// replication 1, 2 and 4 (the replicated placement of the paper's section
// 5.4.2)?
//
// For each replication factor r the model's tables are replicated and
// placed with r latency and r availability replicas. The channels worth
// failing are the distinct HBM banks that serve lookups, round-robin by
// replica index (every table's first replica before any table's second),
// so k failures spread over k tables the way random channel failures do
// instead of concentrating on one table. Point (r, k) fails the first k of
// them permanently from t = 0 (FaultSchedule::FailChannels).
//
// A failure that never changes over the run prices the same for every
// query, so each point is priced once through the FailoverRouter:
//   * a table with no live replica makes every query unservable: the
//     point's pool is one replica crashed for the whole run, which sheds
//     every query;
//   * otherwise the pool serves at item = (item - base_lookup) +
//     degraded_lookup, and a lookup round slower than the healthy one
//     stretches the initiation interval by degraded / base (a slower
//     bottleneck stage is less capacity).
// The priced one-replica PipelineBackend, with its admission bound at the
// SLA, then serves the arrivals through the event loop (ServeOnBackend).
// With zero failures a point is the plain healthy pool bit for bit
// (test-gated, and gate (b) of bench_ablation_faults).
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "core/microrec.hpp"
#include "obs/slo.hpp"
#include "serving/serving_sim.hpp"

namespace microrec::sched {

/// Latency SLA of every point: its pool's admission bound and its SLO
/// threshold.
inline constexpr Nanoseconds kFaultSweepSlaNs = Milliseconds(30);

struct FaultSweepPoint {
  std::uint32_t replication = 0;
  std::uint64_t failed_channels = 0;
  /// Healthy item latency of this replication's plan: the engine's item
  /// latency with the replicated plan's lookup round in place of its own.
  Nanoseconds item_latency_ns = 0.0;
  /// Percentiles over the served queries (zeroed when all were shed).
  ServingReport serving;
  double availability = 1.0;  ///< served / offered
  /// Burn-rate SLO at a 99.9% objective over every offered query (shed =
  /// bad), with [0, last arrival] as the budget period.
  obs::SloReport slo;
};

/// Runs the replication x failed-channels grid, replication-major, with
/// 0..max_failed failed channels per replication factor (fewer when a
/// plan has fewer candidate channels), on the deterministic parallel
/// runner: the points are identical at any `threads`. `engine` supplies
/// the model, its platform, the pipeline's initiation interval and the
/// non-lookup part of its item latency. Fails on empty or decreasing
/// arrivals, or on a model the replication planner cannot place.
StatusOr<std::vector<FaultSweepPoint>> RunFaultSweep(
    const MicroRecEngine& engine, const std::vector<Nanoseconds>& arrivals,
    std::uint64_t max_failed, std::size_t threads);

}  // namespace microrec::sched
