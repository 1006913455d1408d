#include "embedding/hot_cache.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace microrec {

namespace {

constexpr std::size_t kMinIndexSlots = 16;

/// SplitMix64's finalizer over the key. libstdc++'s std::hash<uint64_t> is
/// the identity, and strided rows would pile into a few slots of a
/// power-of-two index without mixing.
std::uint64_t MixKey(std::uint32_t table_id, std::uint64_t row) {
  std::uint64_t z = row + 0x9e3779b97f4a7c15ull * (table_id + 1ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

EmbeddingCacheSim::EmbeddingCacheSim(Bytes capacity_bytes)
    : capacity_(capacity_bytes) {}

std::size_t EmbeddingCacheSim::Home(std::uint32_t table_id,
                                    std::uint64_t row) const {
  return static_cast<std::size_t>(MixKey(table_id, row)) & (index_.size() - 1);
}

bool EmbeddingCacheSim::Access(std::uint32_t table_id, std::uint64_t row,
                               Bytes entry_bytes) {
  MICROREC_CHECK(entry_bytes > 0);
  if (!index_.empty()) {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t s = Home(table_id, row); index_[s] != kNone;
         s = (s + 1) & mask) {
      const std::uint32_t id = index_[s];
      if (entries_[id].row == row && entries_[id].table_id == table_id) {
        ++stats_.hits;
        if (id != front_) {  // move to front
          Unlink(id);
          PushFront(id);
        }
        return true;
      }
    }
  }
  ++stats_.misses;
  if (entry_bytes > capacity_) return false;  // uncacheable

  while (stats_.bytes_cached + entry_bytes > capacity_) {
    const std::uint32_t victim = back_;
    stats_.bytes_cached -= entries_[victim].bytes;
    EraseFromIndex(victim);
    Unlink(victim);
    entries_[victim].next = free_;
    free_ = victim;
    --live_;
    ++stats_.evictions;
  }
  if ((live_ + 1) * 2 > index_.size()) GrowIndex();
  std::uint32_t id = free_;
  if (id != kNone) {
    free_ = entries_[id].next;
  } else {
    MICROREC_CHECK(entries_.size() < kNone);  // ids stay below kNone
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[id] = Entry{row, entry_bytes, table_id, kNone, kNone};
  PushFront(id);
  InsertIntoIndex(id);
  ++live_;
  stats_.bytes_cached += entry_bytes;
  return false;
}

void EmbeddingCacheSim::Unlink(std::uint32_t id) {
  const Entry& e = entries_[id];
  if (e.prev == kNone) {
    front_ = e.next;
  } else {
    entries_[e.prev].next = e.next;
  }
  if (e.next == kNone) {
    back_ = e.prev;
  } else {
    entries_[e.next].prev = e.prev;
  }
}

void EmbeddingCacheSim::PushFront(std::uint32_t id) {
  entries_[id].prev = kNone;
  entries_[id].next = front_;
  if (front_ == kNone) {
    back_ = id;
  } else {
    entries_[front_].prev = id;
  }
  front_ = id;
}

void EmbeddingCacheSim::InsertIntoIndex(std::uint32_t id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = Home(entries_[id].table_id, entries_[id].row);
  while (index_[s] != kNone) s = (s + 1) & mask;
  index_[s] = id;
}

void EmbeddingCacheSim::EraseFromIndex(std::uint32_t id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = Home(entries_[id].table_id, entries_[id].row);
  while (index_[hole] != id) hole = (hole + 1) & mask;
  // Backward shift: pull each later member of the probe run into the hole
  // unless its home lies cyclically after the hole.
  for (std::size_t s = (hole + 1) & mask; index_[s] != kNone;
       s = (s + 1) & mask) {
    const Entry& e = entries_[index_[s]];
    const std::size_t home = Home(e.table_id, e.row);
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      index_[hole] = index_[s];
      hole = s;
    }
  }
  index_[hole] = kNone;
}

void EmbeddingCacheSim::GrowIndex() {
  index_.assign(index_.empty() ? kMinIndexSlots : index_.size() * 2, kNone);
  for (std::uint32_t id = front_; id != kNone; id = entries_[id].next) {
    InsertIntoIndex(id);
  }
}

void EmbeddingCacheSim::Clear() {
  entries_.clear();
  front_ = back_ = free_ = kNone;
  live_ = 0;
  std::fill(index_.begin(), index_.end(), kNone);
  stats_.bytes_cached = 0;
}

}  // namespace microrec
