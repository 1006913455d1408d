#include "faults/failover.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace microrec {

FailoverRouter::FailoverRouter(const ReplicationPlan* plan,
                               const FaultSchedule* schedule)
    : plan_(plan), schedule_(schedule) {
  MICROREC_CHECK(plan_ != nullptr);
}

RoutedLookups FailoverRouter::Route(std::uint32_t lookups_per_table,
                                    Nanoseconds now) const {
  RoutedLookups routed;
  routed.accesses.reserve(plan_->tables.size() * lookups_per_table);
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> per_bank_count;
  std::uint64_t tag = 0;
  for (const auto& replicated : plan_->tables) {
    // Live candidates in plan order -- primaries first, spares appended
    // after them -- truncated to the primary count so spares only ever
    // substitute for dead primaries (healthy routing stays untouched).
    const std::uint32_t primaries = replicated.primaries();
    live.clear();
    for (std::uint32_t bank : replicated.banks) {
      if (schedule_ == nullptr || schedule_->BankAvailable(bank, now)) {
        live.push_back(bank);
        if (live.size() == primaries) break;
      }
    }
    if (live.empty()) {
      routed.shed_lookups += lookups_per_table;
      ++routed.unservable_tables;
      ++tag;
      continue;
    }
    for (std::uint32_t l = 0; l < lookups_per_table; ++l) {
      const std::uint32_t bank = live[l % live.size()];
      routed.accesses.push_back(
          BankAccess{bank, replicated.table.VectorBytes(), tag});
      if (bank >= per_bank_count.size()) per_bank_count.resize(bank + 1, 0);
      routed.rounds = std::max(routed.rounds, ++per_bank_count[bank]);
    }
    ++tag;
  }
  return routed;
}

Nanoseconds FailoverRouter::DegradedLookupLatency(
    std::uint32_t lookups_per_table, const MemoryPlatformSpec& platform,
    Nanoseconds now) const {
  const RoutedLookups routed = Route(lookups_per_table, now);
  std::vector<Nanoseconds> per_bank(platform.total_banks(), 0.0);
  for (const auto& access : routed.accesses) {
    MICROREC_CHECK(access.bank < platform.total_banks());
    const double multiplier =
        schedule_ == nullptr
            ? 1.0
            : schedule_->BankLatencyMultiplier(access.bank, now);
    per_bank[access.bank] +=
        platform.TimingOfBank(access.bank).AccessLatency(access.bytes) *
        multiplier;
  }
  Nanoseconds worst = 0.0;
  for (Nanoseconds t : per_bank) worst = std::max(worst, t);
  return worst;
}

}  // namespace microrec
