#include "embedding/hot_cache.hpp"

#include "common/status.hpp"

namespace microrec {

EmbeddingCacheSim::EmbeddingCacheSim(Bytes capacity_bytes)
    : capacity_(capacity_bytes) {}

bool EmbeddingCacheSim::Access(std::uint32_t table_id, std::uint64_t row,
                               Bytes entry_bytes) {
  MICROREC_CHECK(entry_bytes > 0);
  const Key key{table_id, row};
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return true;
  }
  ++stats_.misses;
  if (entry_bytes > capacity_) return false;  // uncacheable

  while (stats_.bytes_cached + entry_bytes > capacity_) {
    const Entry& victim = lru_.back();
    stats_.bytes_cached -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, entry_bytes});
  index_[key] = lru_.begin();
  stats_.bytes_cached += entry_bytes;
  return false;
}

void EmbeddingCacheSim::Clear() {
  lru_.clear();
  index_.clear();
  stats_.bytes_cached = 0;
}

// ---------------------------------------------------------- PackedRowCache

PackedRowCache::PackedRowCache(std::uint32_t dim, std::uint64_t capacity_rows)
    : dim_(dim), capacity_rows_(capacity_rows) {
  MICROREC_CHECK(dim >= 1 && capacity_rows >= 1);
  arena_.Resize(capacity_rows, dim);
  slot_of_.reserve(capacity_rows);
}

std::optional<std::uint64_t> PackedRowCache::Pin(std::uint64_t row,
                                                 std::span<const float> vec) {
  MICROREC_CHECK(vec.size() == dim_);
  const auto it = slot_of_.find(row);
  std::uint64_t slot;
  if (it != slot_of_.end()) {
    slot = it->second;
  } else {
    if (pinned_ == capacity_rows_) return std::nullopt;
    slot = pinned_++;
    slot_of_.emplace(row, slot);
  }
  const std::span<float> dst = arena_.row(slot);
  for (std::uint32_t d = 0; d < dim_; ++d) dst[d] = vec[d];
  return slot;
}

std::optional<std::uint64_t> PackedRowCache::SlotOf(std::uint64_t row) const {
  const auto it = slot_of_.find(row);
  if (it == slot_of_.end()) return std::nullopt;
  return it->second;
}

PackedTableView PackedRowCache::view() const {
  PackedTableView v = arena_.view();
  v.rows = pinned_;  // gather wraps modulo the *pinned* count
  return v;
}

}  // namespace microrec
