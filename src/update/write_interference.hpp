// Write-interference model: update traffic on the serving memory system.
//
// Update writes are injected as write transactions into per-bank channels
// of the same memory platform the embedding lookups read from, so updates
// and lookups compete for HBM/DDR bank occupancy. A lookup batch starting
// while a bank still drains update writes waits for that bank — the extra
// delay this module reports. Two write-priority policies are modelled:
//   kFairInterleave — writes are issued at their generation time, in
//     arrival order with reads (lowest staleness, most read interference);
//   kUpdatesYield — writes park until an idle gap in the query arrival
//     stream and only start inside one (reads keep their tail; staleness
//     grows when queries leave few gaps).
//
// Asymmetry note: lookup self-contention is already folded into the
// pipeline's initiation interval (the paper's round model), so queries do
// not re-issue their reads here; the injector adds only the cross-traffic
// delay. This is what makes the zero-update case collapse exactly onto the
// no-update serving simulators.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "memsim/channel_sim.hpp"
#include "placement/plan.hpp"
#include "update/delta_stream.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {

enum class WritePolicy { kFairInterleave, kUpdatesYield };

const char* WritePolicyName(WritePolicy policy);

class UpdateWriteInjector {
 public:
  /// Routes are derived from `plan` once, one per table of `model`: each
  /// table maps to the bank its (possibly Cartesian-combined) placement
  /// lives on. An update to a member of a product table dirties every
  /// product entry containing that member row, so its write transaction
  /// carries the amplified byte count.
  UpdateWriteInjector(const RecModelSpec& model, const PlacementPlan& plan,
                      const MemoryPlatformSpec& platform);

  /// Issues one batch's writes at `issue_ns` (>= any previous issue time).
  /// Writes serialize per bank behind earlier writes. Returns the
  /// completion time of the slowest write.
  Nanoseconds Inject(const UpdateBatch& batch, Nanoseconds issue_ns);

  /// Extra delay a lookup batch starting at `start_ns` suffers from
  /// in-flight update writes: the largest remaining write occupancy across
  /// the banks the lookup touches. Zero when no writes are in flight.
  Nanoseconds LookupDelay(std::span<const BankAccess> lookup,
                          Nanoseconds start_ns) const;

  /// Bytes written by every injected batch so far.
  Bytes bytes_written() const { return bytes_written_; }

  /// Write route of the model's table at index `table` (nullptr if the
  /// table is not in the plan — its updates are dropped and counted
  /// nowhere).
  struct Route {
    std::uint32_t bank = 0;
    Bytes bytes_per_row_update = 0;
    std::uint64_t amplification_rows = 1;
  };
  const Route* route(std::uint32_t table) const;

 private:
  /// One FIFO channel per bank of the platform, built and served exactly
  /// as HybridMemorySystem's (overlap 0, no telemetry).
  std::vector<ChannelSim> banks_;
  std::vector<std::optional<Route>> routes_;  // by model-table index
  Bytes bytes_written_ = 0;
};

}  // namespace microrec
