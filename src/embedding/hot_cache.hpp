// LRU cache simulator for hot embedding rows.
//
// An extension study grounded in the paper's related work: RecNMP
// (Ke et al. 2020) adds memory-side caching of frequently accessed
// embedding entries, and the paper's own rule 4 statically pins whole tiny
// tables on chip. This simulator quantifies the dynamic alternative --
// caching individual hot rows of *large* tables under skewed (Zipf)
// traffic -- so the repo can report how much further on-chip SRAM could
// cut average lookup latency (bench_ablation_hot_cache) and what the
// scheduler's hot-cache backend (sched/backends.hpp) hits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "tensor/packed_rows.hpp"

namespace microrec {

struct EmbeddingCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  Bytes bytes_cached = 0;  ///< current occupancy

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Fully-associative LRU cache over (table, row) keys with a byte-capacity
/// budget; each entry occupies its embedding vector's size.
///
/// The state is flat. Entries live in one pool and carry the LRU list as
/// 32-bit prev/next links; evicted entries chain through `next` on a free
/// list for reuse. An open-addressed power-of-two index of entry ids
/// (linear probing, backward-shift deletion, mixed keys) finds them. The
/// constructor allocates nothing, the index doubles only when the live
/// entries pass half its slots, and a full cache allocates nothing per
/// access. More than 2^32 - 1 entries fail a check instead of wrapping.
class EmbeddingCacheSim {
 public:
  explicit EmbeddingCacheSim(Bytes capacity_bytes);

  Bytes capacity() const { return capacity_; }
  const EmbeddingCacheStats& stats() const { return stats_; }

  /// Records an access; returns true on hit. On miss the entry is inserted
  /// (evicting LRU entries until it fits). Entries larger than the whole
  /// capacity are never cached (counted as misses, no insertion).
  bool Access(std::uint32_t table_id, std::uint64_t row, Bytes entry_bytes);

  /// Drops all entries; keeps cumulative hit/miss counters.
  void Clear();

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Entry {
    std::uint64_t row;
    Bytes bytes;
    std::uint32_t table_id;
    std::uint32_t prev;  ///< more recent neighbour; kNone at the front
    std::uint32_t next;  ///< less recent neighbour (or next free entry)
  };

  /// Index slot the key hashes to.
  std::size_t Home(std::uint32_t table_id, std::uint64_t row) const;
  void Unlink(std::uint32_t id);
  void PushFront(std::uint32_t id);
  /// Places `id` in the first free slot of its probe run.
  void InsertIntoIndex(std::uint32_t id);
  /// Removes `id` from the index, shifting its probe run back.
  void EraseFromIndex(std::uint32_t id);
  /// Doubles the index (first use: kMinIndexSlots) and reinserts.
  void GrowIndex();

  Bytes capacity_;
  std::vector<Entry> entries_;
  std::uint32_t front_ = kNone;  ///< most recently used
  std::uint32_t back_ = kNone;   ///< least recently used
  std::uint32_t free_ = kNone;
  std::size_t live_ = 0;
  std::vector<std::uint32_t> index_;  ///< entry id per slot, kNone if empty
  EmbeddingCacheStats stats_;
};

/// Materialized hot-row store for one table, in the same packed row layout
/// as EmbeddingTable (tensor/packed_rows.hpp): pinned rows live
/// contiguously, dim-padded to 8 floats, so a cache-resident gather runs
/// through the identical vectorized gather/sum-pool kernel as a
/// table-resident one -- only the arena and the indices differ. Pinning is
/// static (paper placement rule 4 pins whole hot tables on chip;
/// EmbeddingCacheSim remains the *dynamic* LRU policy simulator): Pin()
/// admits rows until the row budget is full and never evicts.
class PackedRowCache {
 public:
  PackedRowCache(std::uint32_t dim, std::uint64_t capacity_rows);

  std::uint32_t dim() const { return dim_; }
  std::uint64_t capacity_rows() const { return capacity_rows_; }
  std::uint64_t pinned_rows() const { return pinned_; }

  /// Copies `vec` (length dim) into the arena as (virtual) row `row`.
  /// Returns the slot index, reusing the existing slot when `row` is
  /// already pinned; nullopt when the cache is full.
  std::optional<std::uint64_t> Pin(std::uint64_t row,
                                   std::span<const float> vec);

  /// Arena slot holding `row`, or nullopt on miss.
  std::optional<std::uint64_t> SlotOf(std::uint64_t row) const;

  /// Packed view over the pinned slots; gather with *slot* indices (from
  /// SlotOf), exactly as a table gather uses row indices.
  PackedTableView view() const;

 private:
  std::uint32_t dim_;
  std::uint64_t capacity_rows_;
  std::uint64_t pinned_ = 0;
  PackedRowBuffer arena_;                               // [capacity x dim]
  std::unordered_map<std::uint64_t, std::uint64_t> slot_of_;  // row -> slot
};

}  // namespace microrec
