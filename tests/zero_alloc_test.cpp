// Steady-state allocation tests for the measured CPU inference hot path.
//
// The hardware-fast CPU engine's contract (DESIGN.md section 16) is that
// once an InferenceScratch has warmed up -- buffers grown to their
// high-water marks -- repeated InferBatch / InferOne / ForwardBatch calls
// perform ZERO heap allocations, at any engine thread count. These tests
// enforce that with counting global operator new/delete replacements: run
// the call once to warm the arena, then assert the allocation counter does
// not move across many further calls.
//
// The replacement operators live in this dedicated binary so the hooks
// cannot perturb the rest of the test suite. The counters are atomic
// because multi-threaded engines run their shards on pool workers, whose
// allocations (if any) must be counted too. Every engine test runs at 1, 2
// and 4 threads: the pool hands shards to its workers through a job on the
// caller's stack and a non-owning callable reference, so sharding a batch
// allocates nothing. The simulated fleet's LRU hot-row cache is held to the
// same rule once it is full, and so is the model validation every engine
// build runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/zipf.hpp"
#include "cpu/cpu_engine.hpp"
#include "embedding/hot_cache.hpp"
#include "nn/mlp.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

// Every operator delete replacement frees through here, so each variant
// counts once and none forwards to another replaced operator. Out of line
// because the replaced operator new is malloc-based: inlined into a
// `delete` of a `new`-ed pointer, the free() reads to GCC as a
// mismatched deallocation (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) noexcept {
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace microrec {
namespace {

std::uint64_t AllocCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(ZeroAllocTest, HooksObserveAllocations) {
  const std::uint64_t before = AllocCount();
  auto* p = new int(7);
  EXPECT_GT(AllocCount(), before);
  delete p;
}

TEST(ZeroAllocTest, MlpForwardBatchSteadyStateAllocatesNothing) {
  MlpSpec spec;
  spec.input_dim = 96;
  spec.hidden = {64, 32, 48};  // widths grow and shrink across layers
  const MlpModel model = MlpModel::Create(spec, 5);
  MatrixF inputs(17, spec.input_dim);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = static_cast<float>(i % 13) * 0.05f - 0.3f;
  }
  MlpScratch scratch;
  std::vector<float> probs(inputs.rows());
  model.ForwardBatch(inputs, scratch, probs);  // warm the ping-pong buffers

  const std::uint64_t before = AllocCount();
  for (int rep = 0; rep < 50; ++rep) {
    model.ForwardBatch(inputs, scratch, probs);
  }
  EXPECT_EQ(AllocCount(), before)
      << "ForwardBatch allocated in steady state";
}

TEST(ZeroAllocTest, MlpForwardOneSteadyStateAllocatesNothing) {
  MlpSpec spec;
  spec.input_dim = 40;
  spec.hidden = {24, 56, 16};
  const MlpModel model = MlpModel::Create(spec, 6);
  std::vector<float> input(spec.input_dim, 0.125f);
  MlpScratch scratch;
  float p0 = model.ForwardOne(input, scratch);

  const std::uint64_t before = AllocCount();
  float p1 = 0.0f;
  for (int rep = 0; rep < 50; ++rep) {
    p1 = model.ForwardOne(input, scratch);
  }
  EXPECT_EQ(AllocCount(), before) << "ForwardOne allocated in steady state";
  EXPECT_EQ(p0, p1);
}

/// Engine thread counts every engine test runs at.
constexpr std::size_t kThreadCounts[] = {1, 2, 4};

TEST(ZeroAllocTest, ThreadPoolParallelForAllocatesNothing) {
  // A lambda capturing more than 16 bytes: type-erasing it into a
  // std::function would allocate on every call.
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  std::mutex mu;
  std::size_t shards = 0;
  auto shard = [&hits, &mu, &shards](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ++shards;
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  };
  pool.ParallelFor(hits.size(), shard);  // start every worker once

  const std::uint64_t before = AllocCount();
  for (int rep = 0; rep < 20; ++rep) {
    pool.ParallelFor(hits.size(), shard);
    pool.ParallelFor(hits.size(), /*grain=*/1, shard);
  }
  EXPECT_EQ(AllocCount(), before) << "ParallelFor allocated";
  EXPECT_EQ(shards, 4u + 20u * (4u + 100u));
  for (int h : hits) EXPECT_EQ(h, 41);
}

// The duplicate-id check keeps its hash set in a stack buffer, so both
// production models (47 and 98 tables) validate without touching the heap.
TEST(ZeroAllocTest, ModelValidateAllocatesNothing) {
  for (const RecModelSpec& model :
       {SmallProductionModel(), LargeProductionModel()}) {
    const std::uint64_t before = AllocCount();
    const bool ok = model.Validate().ok();
    EXPECT_EQ(AllocCount(), before) << model.name;
    EXPECT_TRUE(ok) << model.name;
  }
}

TEST(ZeroAllocTest, InferBatchSteadyStateAllocatesNothing) {
  const RecModelSpec model = PooledCpuGateModel();
  QueryGenerator gen(model, IndexDistribution::kUniform, 3);
  const auto queries = gen.NextBatch(64);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    CpuEngine engine(model, /*max_physical_rows=*/1 << 12,
                     FrameworkOverheadParams{}, threads);
    InferenceScratch scratch;
    engine.InferBatch(queries, scratch);  // warm every buffer

    const std::uint64_t before = AllocCount();
    std::span<const float> probs;
    for (int rep = 0; rep < 20; ++rep) {
      probs = engine.InferBatch(queries, scratch);
    }
    EXPECT_EQ(AllocCount(), before) << "InferBatch allocated in steady state";
    ASSERT_EQ(probs.size(), queries.size());
  }
}

TEST(ZeroAllocTest, ReserveScratchMakesFirstInferBatchAllocationFree) {
  const RecModelSpec model = PooledCpuGateModel();
  QueryGenerator gen(model, IndexDistribution::kUniform, 4);
  const auto queries = gen.NextBatch(32);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    CpuEngine engine(model, /*max_physical_rows=*/1 << 12,
                     FrameworkOverheadParams{}, threads);
    InferenceScratch scratch;
    engine.ReserveScratch(scratch, 32);

    const std::uint64_t before = AllocCount();
    engine.InferBatch(queries, scratch);
    EXPECT_EQ(AllocCount(), before)
        << "first InferBatch after ReserveScratch allocated";
  }
}

TEST(ZeroAllocTest, InferOneSteadyStateAllocatesNothing) {
  const RecModelSpec model = PooledCpuGateModel();
  QueryGenerator gen(model, IndexDistribution::kUniform, 5);
  const auto queries = gen.NextBatch(8);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    CpuEngine engine(model, /*max_physical_rows=*/1 << 12,
                     FrameworkOverheadParams{}, threads);
    InferenceScratch scratch;
    float p0 = engine.InferOne(queries[0], scratch);

    const std::uint64_t before = AllocCount();
    float p1 = 0.0f;
    for (int rep = 0; rep < 50; ++rep) {
      for (const auto& q : queries) p1 = engine.InferOne(q, scratch);
    }
    EXPECT_EQ(AllocCount(), before) << "InferOne allocated in steady state";
    EXPECT_EQ(p0, engine.InferOne(queries[0], scratch));
    (void)p1;
  }
}

TEST(ZeroAllocTest, SmallerBatchReusesWarmScratch) {
  // Shrinking the batch must not allocate either (capacity reuse), and a
  // later re-grow within the high-water mark stays allocation-free too.
  const RecModelSpec model = PooledCpuGateModel();
  QueryGenerator gen(model, IndexDistribution::kUniform, 6);
  const auto big = gen.NextBatch(48);
  const auto small = gen.NextBatch(7);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    CpuEngine engine(model, /*max_physical_rows=*/1 << 12,
                     FrameworkOverheadParams{}, threads);
    InferenceScratch scratch;
    engine.InferBatch(big, scratch);

    const std::uint64_t before = AllocCount();
    engine.InferBatch(small, scratch);
    engine.InferBatch(big, scratch);
    EXPECT_EQ(AllocCount(), before)
        << "batch-size change within the high-water mark allocated";
  }
}

TEST(ZeroAllocTest, FullHotRowCacheAllocatesNothingPerAccess) {
  // The scheduler fleet's hot-cache shape: 4 MiB of 64-byte rows under
  // Zipf(0.95) over 2^20 keys. Building the cache allocates nothing; once
  // it is full every miss evicts as much as it inserts.
  const std::uint64_t before_build = AllocCount();
  EmbeddingCacheSim cache(Bytes{4} << 20);
  EXPECT_EQ(AllocCount(), before_build) << "the constructor allocated";
  ZipfSampler zipf(1u << 20, 0.95);
  Rng rng(3);
  while (cache.stats().evictions == 0) cache.Access(0, zipf.Sample(rng), 64);

  const std::uint64_t misses = cache.stats().misses;
  const std::uint64_t before = AllocCount();
  for (int i = 0; i < 100'000; ++i) cache.Access(0, zipf.Sample(rng), 64);
  EXPECT_EQ(AllocCount(), before) << "a full cache allocated";
  EXPECT_GT(cache.stats().misses - misses, 10'000u);  // it kept evicting
}

}  // namespace
}  // namespace microrec
