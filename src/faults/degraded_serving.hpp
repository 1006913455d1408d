// Fault-aware scale-out serving: replicated item-streaming pipelines under
// a FaultSchedule, with availability-aware failover at the lookup level and
// admission control at the dispatch level.
//
// Three degradation mechanisms compose:
//   * replica crashes shrink the live pipeline pool (zero live = shed);
//   * channel faults reshape each query's embedding lookups through the
//     FailoverRouter -- degraded channels stretch the lookup round, dead
//     channels force multi-round re-routing, and both stretch the item
//     latency AND the initiation interval (less capacity per replica);
//   * admission control sheds a query whose projected queue delay exceeds
//     the configured bound, which is exactly what happens when effective
//     capacity falls below the offered QPS.
// The report separates availability (served / offered) from the latency
// percentiles of the queries that were served, because a system that sheds
// half its traffic "at great p99" is not a healthy system.
//
// Regression guarantee (tested, and asserted by bench_ablation_faults):
// with an empty schedule the report's ServingReport is field-for-field
// identical to a sched::PipelineBackend with the same replica count
// serving the same arrivals -- the injection layer is zero-cost when
// disabled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "faults/failover.hpp"
#include "faults/fault_schedule.hpp"
#include "memsim/dram_timing.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serving/serving_sim.hpp"

namespace microrec {

struct DegradedServingConfig {
  /// Scale-out pipeline replicas behind the least-loaded dispatcher.
  std::uint32_t pipeline_replicas = 1;

  /// Healthy per-item pipeline latency / initiation interval.
  Nanoseconds item_latency_ns = 0.0;
  Nanoseconds initiation_interval_ns = 0.0;

  /// Healthy embedding-lookup component of item_latency_ns. Required (> 0)
  /// when a FailoverRouter is supplied: the degraded lookup latency
  /// replaces this slice of the item latency, and their ratio scales the
  /// initiation interval.
  Nanoseconds base_lookup_latency_ns = 0.0;
  std::uint32_t lookups_per_table = 1;

  Nanoseconds sla_ns = Milliseconds(30);

  /// Admission control: a query whose projected queue delay exceeds this
  /// bound is shed instead of queued. Defaults to the SLA -- queueing a
  /// query that is already doomed only delays every query behind it.
  Nanoseconds admission_queue_ns = Milliseconds(30);

  /// Optional counts-only telemetry. Offered/served/shed counters and a
  /// served-query queue-delay histogram are mirrored into this registry
  /// (names prefixed `degraded_`). Simulation results are unchanged.
  obs::MetricsRegistry* metrics = nullptr;

  /// Optional per-query outcome stream for SLO evaluation: one entry per
  /// offered query in arrival order (shed queries appear with
  /// served=false). Pure observation; simulation results are unchanged.
  std::vector<obs::QueryOutcome>* outcomes = nullptr;
};

struct DegradedServingReport {
  /// Percentiles over the *served* queries only (shed queries have no
  /// completion; they are accounted below, never mixed into the tail).
  ServingReport serving;

  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t shed_admission = 0;   ///< queue delay above the bound
  std::uint64_t shed_unservable = 0;  ///< no live pipeline replica, or a
                                      ///< table with zero live banks
  double availability = 1.0;          ///< served / offered
  double shed_rate = 0.0;             ///< 1 - availability

  Nanoseconds item_latency_max_ns = 0.0;  ///< worst degraded item latency

  std::string ToString() const;
};

/// Simulates `arrivals` against `config.pipeline_replicas` pipelines under
/// `schedule`. `router` (optional, with `platform`) adds channel-level
/// failover: pass a FailoverRouter over the ReplicationPlan the pipelines
/// serve from. Fails loudly on empty/non-monotonic arrivals or invalid
/// config rather than dividing by zero downstream.
StatusOr<DegradedServingReport> SimulateDegradedServing(
    const std::vector<Nanoseconds>& arrivals,
    const DegradedServingConfig& config, const FaultSchedule& schedule,
    const FailoverRouter* router = nullptr,
    const MemoryPlatformSpec* platform = nullptr);

}  // namespace microrec
