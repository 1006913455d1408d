#include "update/write_interference.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace microrec {

const char* WritePolicyName(WritePolicy policy) {
  switch (policy) {
    case WritePolicy::kFairInterleave:
      return "fair-interleave";
    case WritePolicy::kUpdatesYield:
      return "updates-yield";
  }
  return "unknown";
}

UpdateWriteInjector::UpdateWriteInjector(const PlacementPlan& plan,
                                         const MemoryPlatformSpec& platform)
    : memory_(platform) {
  for (const TablePlacement& placement : plan.placements) {
    const CombinedTable& combined = placement.table;
    for (const TableSpec& member : combined.members()) {
      Route route;
      route.bank = placement.bank;
      if (combined.is_product()) {
        // One member-row delta dirties every product entry holding that
        // row: rows() / member.rows entries of the combined vector each.
        route.amplification_rows =
            std::max<std::uint64_t>(1, combined.rows() / member.rows);
        route.bytes_per_row_update =
            route.amplification_rows * combined.VectorBytes();
      } else {
        route.amplification_rows = 1;
        route.bytes_per_row_update = member.VectorBytes();
      }
      routes_[member.id] = route;
    }
  }
}

const UpdateWriteInjector::Route* UpdateWriteInjector::route(
    std::uint32_t table_id) const {
  auto it = routes_.find(table_id);
  return it == routes_.end() ? nullptr : &it->second;
}

Nanoseconds UpdateWriteInjector::Inject(const UpdateBatch& batch,
                                        Nanoseconds issue_ns) {
  access_scratch_.clear();
  access_scratch_.reserve(batch.deltas.size());
  for (const EmbeddingDelta& delta : batch.deltas) {
    const Route* r = route(delta.table_id);
    if (r == nullptr) continue;
    access_scratch_.push_back(
        BankAccess{r->bank, r->bytes_per_row_update, delta.seq});
    bytes_written_ += r->bytes_per_row_update;
  }
  if (access_scratch_.empty()) return issue_ns;
  memory_.IssueBatchInto(access_scratch_, issue_ns, result_scratch_);
  return result_scratch_.completion_ns;
}

Nanoseconds UpdateWriteInjector::LookupDelay(
    std::span<const BankAccess> lookup, Nanoseconds start_ns) const {
  Nanoseconds delay = 0.0;
  for (const BankAccess& access : lookup) {
    delay = std::max(delay, memory_.bank(access.bank).free_at_ns() - start_ns);
  }
  return std::max(delay, 0.0);
}

}  // namespace microrec
