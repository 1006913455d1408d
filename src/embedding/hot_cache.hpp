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
#include <vector>

#include "common/units.hpp"

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

}  // namespace microrec
