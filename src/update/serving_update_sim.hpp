// Update-aware serving simulation.
//
// Runs the item-streaming pipeline (serving/serving_sim.hpp) under a
// concurrent embedding-update stream: update writes occupy the same memory
// banks the queries' lookups read from, and each batch's version publish
// lags its generation by the write time (plus the yield policy's deferral).
// The report extends the standard ServingReport with staleness and
// interference percentiles.
//
// Regression guarantee (tested): with update_row_qps == 0 the report is
// bit-for-bit identical to a one-replica sched::PipelineBackend serving the
// same arrivals -- the update machinery adds exactly nothing to the query
// path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "memsim/dram_timing.hpp"
#include "placement/plan.hpp"
#include "serving/serving_sim.hpp"
#include "update/delta_stream.hpp"
#include "update/write_interference.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {

struct UpdateServingConfig {
  // ---- Query pipeline (one serving/PipelineServer) ----
  Nanoseconds item_latency_ns = 0.0;
  Nanoseconds initiation_interval_ns = 0.0;
  Nanoseconds sla_ns = Milliseconds(30);

  // ---- Update stream ----
  DeltaStreamConfig deltas;  ///< update_row_qps == 0 disables updates
  WritePolicy policy = WritePolicy::kFairInterleave;
};

struct UpdateServingReport {
  ServingReport serving;  ///< same fields as the no-update simulators

  double update_row_qps = 0.0;
  std::uint64_t update_batches = 0;
  std::uint64_t update_rows = 0;
  std::uint64_t publishes = 0;
  Bytes update_bytes_written = 0;

  /// Staleness sampled at every query start: newest generated delta
  /// timestamp minus newest published delta timestamp.
  Nanoseconds staleness_p50 = 0.0;
  Nanoseconds staleness_p95 = 0.0;
  Nanoseconds staleness_p99 = 0.0;
  Nanoseconds staleness_max = 0.0;
  Nanoseconds staleness_mean = 0.0;

  /// Extra lookup delay from in-flight update writes.
  Nanoseconds interference_mean = 0.0;
  Nanoseconds interference_max = 0.0;
  std::uint64_t delayed_queries = 0;

  /// Always zero: the plan never changes during a run. Kept because
  /// update-sweep prints a migrations column and perfbench's recorded
  /// sim-accel digests cover all three.
  std::uint64_t migrations = 0;
  Bytes migrated_bytes = 0;
  Nanoseconds migration_cost_ns = 0.0;

  std::string ToString() const;
};

/// Simulates serving `arrivals` through the pipelined server while a
/// DeltaStream generated from `config.deltas` updates the model's tables.
/// `plan` maps tables to banks for both the writes and the lookups.
UpdateServingReport SimulateServingWithUpdates(
    const RecModelSpec& model, const PlacementPlan& plan,
    const MemoryPlatformSpec& platform,
    const std::vector<Nanoseconds>& arrivals,
    const UpdateServingConfig& config);

}  // namespace microrec
