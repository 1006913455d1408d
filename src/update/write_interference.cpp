#include "update/write_interference.hpp"

#include <algorithm>
#include <unordered_map>

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

UpdateWriteInjector::UpdateWriteInjector(const RecModelSpec& model,
                                         const PlacementPlan& plan,
                                         const MemoryPlatformSpec& platform) {
  banks_.reserve(platform.total_banks());
  for (std::uint32_t b = 0; b < platform.total_banks(); ++b) {
    banks_.emplace_back(platform.TimingOfBank(b));
  }
  std::unordered_map<std::uint32_t, Route> by_id;
  for (const TablePlacement& placement : plan.placements) {
    MICROREC_CHECK(placement.bank < banks_.size());
    const CombinedTable& combined = placement.table;
    for (const TableSpec& member : combined.members()) {
      Route route;
      route.bank = placement.bank;
      if (combined.is_product()) {
        // One member-row update dirties every product entry holding that
        // row: rows() / member.rows entries of the combined vector each.
        route.amplification_rows =
            std::max<std::uint64_t>(1, combined.rows() / member.rows);
        route.bytes_per_row_update =
            route.amplification_rows * combined.VectorBytes();
      } else {
        route.amplification_rows = 1;
        route.bytes_per_row_update = member.VectorBytes();
      }
      by_id[member.id] = route;
    }
  }
  routes_.reserve(model.tables.size());
  for (const TableSpec& table : model.tables) {
    const auto it = by_id.find(table.id);
    routes_.push_back(it == by_id.end() ? std::nullopt
                                        : std::optional<Route>(it->second));
  }
}

const UpdateWriteInjector::Route* UpdateWriteInjector::route(
    std::uint32_t table) const {
  MICROREC_CHECK(table < routes_.size());
  return routes_[table] ? &*routes_[table] : nullptr;
}

Nanoseconds UpdateWriteInjector::Inject(const UpdateBatch& batch,
                                        Nanoseconds issue_ns) {
  // Every write issues at `issue_ns` and the batch completes with its
  // slowest write: the Serve calls and the max that
  // HybridMemorySystem::IssueBatchInto makes, without staging the accesses.
  Nanoseconds done = issue_ns;
  for (const std::uint32_t table : batch.tables) {
    const Route* r = route(table);
    if (r == nullptr) continue;
    const MemCompletion write = banks_[r->bank].Serve(
        MemRequest{issue_ns, r->bytes_per_row_update});
    if (write.completion_ns > done) done = write.completion_ns;
    bytes_written_ += r->bytes_per_row_update;
  }
  return done;
}

Nanoseconds UpdateWriteInjector::LookupDelay(
    std::span<const BankAccess> lookup, Nanoseconds start_ns) const {
  Nanoseconds delay = 0.0;
  for (const BankAccess& access : lookup) {
    MICROREC_CHECK(access.bank < banks_.size());
    delay = std::max(delay, banks_[access.bank].free_at_ns() - start_ns);
  }
  return std::max(delay, 0.0);
}

}  // namespace microrec
