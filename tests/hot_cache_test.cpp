// Tests for the LRU embedding-row cache simulator.
#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "embedding/hot_cache.hpp"

namespace microrec {
namespace {

TEST(HotCacheTest, MissThenHit) {
  EmbeddingCacheSim cache(1024);
  EXPECT_FALSE(cache.Access(0, 5, 64));
  EXPECT_TRUE(cache.Access(0, 5, 64));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(HotCacheTest, DistinctTablesDoNotCollide) {
  EmbeddingCacheSim cache(1024);
  cache.Access(0, 5, 64);
  EXPECT_FALSE(cache.Access(1, 5, 64));  // same row id, different table
  EXPECT_TRUE(cache.Access(0, 5, 64));
  EXPECT_TRUE(cache.Access(1, 5, 64));
}

TEST(HotCacheTest, LruEvictionOrder) {
  EmbeddingCacheSim cache(128);  // fits two 64-byte entries
  cache.Access(0, 1, 64);
  cache.Access(0, 2, 64);
  cache.Access(0, 1, 64);  // touch 1: now 2 is LRU
  cache.Access(0, 3, 64);  // evicts 2
  EXPECT_TRUE(cache.Access(0, 1, 64));
  EXPECT_FALSE(cache.Access(0, 2, 64));  // was evicted
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(HotCacheTest, OversizedEntryNeverCached) {
  EmbeddingCacheSim cache(100);
  EXPECT_FALSE(cache.Access(0, 1, 200));
  EXPECT_FALSE(cache.Access(0, 1, 200));  // still a miss
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
}

TEST(HotCacheTest, OccupancyNeverExceedsCapacity) {
  EmbeddingCacheSim cache(1000);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    cache.Access(0, rng.NextBounded(500), 16 + 16 * rng.NextBounded(4));
    EXPECT_LE(cache.stats().bytes_cached, 1000u);
  }
}

TEST(HotCacheTest, ClearDropsEntriesKeepsCounters) {
  EmbeddingCacheSim cache(1024);
  cache.Access(0, 1, 64);
  cache.Access(0, 1, 64);
  cache.Clear();
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.Access(0, 1, 64));  // re-miss after clear
}

TEST(HotCacheTest, ZipfTrafficYieldsHighHitRate) {
  // Skewed traffic over a 1M-row table: a cache holding ~1% of rows should
  // capture far more than 1% of accesses.
  const std::uint64_t rows = 1'000'000;
  const Bytes entry = 32;
  EmbeddingCacheSim cache(rows / 100 * entry);
  ZipfSampler zipf(rows, 0.99);
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    cache.Access(0, zipf.Sample(rng), entry);
  }
  EXPECT_GT(cache.stats().hit_rate(), 0.4);
}

TEST(HotCacheTest, UniformTrafficYieldsLowHitRate) {
  const std::uint64_t rows = 1'000'000;
  const Bytes entry = 32;
  EmbeddingCacheSim cache(rows / 100 * entry);  // 1% of rows
  Rng rng(8);
  for (int i = 0; i < 100'000; ++i) {
    cache.Access(0, rng.NextBounded(rows), entry);
  }
  EXPECT_LT(cache.stats().hit_rate(), 0.05);
}

TEST(HotCacheTest, HitRateMonotoneInCapacity) {
  const std::uint64_t rows = 100'000;
  double prev = -1.0;
  for (Bytes capacity : {Bytes(1) << 12, Bytes(1) << 15, Bytes(1) << 18}) {
    EmbeddingCacheSim cache(capacity);
    ZipfSampler zipf(rows, 0.9);
    Rng rng(9);
    for (int i = 0; i < 50'000; ++i) {
      cache.Access(0, zipf.Sample(rng), 32);
    }
    EXPECT_GT(cache.stats().hit_rate(), prev);
    prev = cache.stats().hit_rate();
  }
}

/// The std::list + std::unordered_map LRU that the flat pool and index
/// replaced, kept verbatim as the differential oracle.
class ListLruOracle {
 public:
  explicit ListLruOracle(Bytes capacity_bytes) : capacity_(capacity_bytes) {}

  const EmbeddingCacheStats& stats() const { return stats_; }

  bool Access(std::uint32_t table_id, std::uint64_t row, Bytes entry_bytes) {
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

  void Clear() {
    lru_.clear();
    index_.clear();
    stats_.bytes_cached = 0;
  }

 private:
  struct Key {
    std::uint32_t table_id;
    std::uint64_t row;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(k.row * 1000003ull + k.table_id);
    }
  };
  struct Entry {
    Key key;
    Bytes bytes;
  };

  Bytes capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  EmbeddingCacheStats stats_;
};

TEST(HotCacheTest, MatchesListLruOracleCallForCall) {
  // Seeded streams over 3 tables: a hot set, runs of rows strided by 2^16
  // (which pile into one slot of an unmixed power-of-two index), and cold
  // 64-bit rows; sizes from 16 bytes to past the capacity, including
  // entries that evict several others; an occasional Clear().
  for (const Bytes capacity : {Bytes{1000}, Bytes{1} << 16}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << " seed "
                                      << seed);
      EmbeddingCacheSim cache(capacity);
      ListLruOracle oracle(capacity);
      Rng rng(seed);
      const Bytes sizes[] = {16,           16,           48,
                             64,           256,          capacity / 3,
                             capacity / 2, capacity,     capacity + 1};
      std::uint64_t stride_run = 0;  // accesses left in the current run
      std::uint64_t stride_base = 0;
      for (int i = 0; i < 60'000; ++i) {
        if (rng.NextBounded(4000) == 0) {
          cache.Clear();
          oracle.Clear();
        }
        const auto table = static_cast<std::uint32_t>(rng.NextBounded(3));
        std::uint64_t row;
        if (stride_run > 0) {
          --stride_run;
          row = (stride_base + rng.NextBounded(48)) << 16;
        } else if (rng.NextBounded(200) == 0) {
          stride_run = 300;
          stride_base = rng.NextBounded(1u << 20);
          row = stride_base << 16;
        } else if (rng.NextBounded(4) != 0) {
          row = rng.NextBounded(96);
        } else {
          row = rng.Next();
        }
        // Small entries dominate so a large cache holds thousands of them.
        const Bytes bytes = rng.NextBounded(8) != 0
                                ? sizes[rng.NextBounded(3)]
                                : sizes[rng.NextBounded(std::size(sizes))];
        ASSERT_EQ(cache.Access(table, row, bytes),
                  oracle.Access(table, row, bytes))
            << "access " << i << " table " << table << " row " << row;
        ASSERT_EQ(cache.stats().hits, oracle.stats().hits) << "access " << i;
        ASSERT_EQ(cache.stats().misses, oracle.stats().misses)
            << "access " << i;
        ASSERT_EQ(cache.stats().evictions, oracle.stats().evictions)
            << "access " << i;
        ASSERT_EQ(cache.stats().bytes_cached, oracle.stats().bytes_cached)
            << "access " << i;
      }
      EXPECT_GT(cache.stats().evictions, 1000u);
      EXPECT_GT(cache.stats().hits, 1000u);
    }
  }
}

}  // namespace
}  // namespace microrec
