// Write-interference model: update traffic on the serving memory system.
//
// Update writes are injected as write transactions into the same
// HybridMemorySystem channels the embedding lookups read from, so updates
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
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "memsim/hybrid_memory.hpp"
#include "placement/plan.hpp"
#include "update/delta_stream.hpp"

namespace microrec {

enum class WritePolicy { kFairInterleave, kUpdatesYield };

const char* WritePolicyName(WritePolicy policy);

class UpdateWriteInjector {
 public:
  /// Routes are derived from `plan`: each original table maps to the bank
  /// its (possibly Cartesian-combined) placement lives on. A delta to a
  /// member of a product table dirties every product entry containing that
  /// member row, so its write transaction carries the amplified byte count.
  UpdateWriteInjector(const PlacementPlan& plan,
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

  /// Write route of one original table (nullptr if the table is not in the
  /// plan — its deltas are dropped and counted nowhere).
  struct Route {
    std::uint32_t bank = 0;
    Bytes bytes_per_row_update = 0;
    std::uint64_t amplification_rows = 1;
  };
  const Route* route(std::uint32_t table_id) const;

 private:
  HybridMemorySystem memory_;
  std::unordered_map<std::uint32_t, Route> routes_;
  Bytes bytes_written_ = 0;
  /// Scratch reused across Inject calls so per-batch injection does no
  /// steady-state allocation (accesses staging + issue result).
  std::vector<BankAccess> access_scratch_;
  LookupBatchResult result_scratch_;
};

}  // namespace microrec
