// Unit tests for src/common: status handling, units, RNG, Zipf sampling,
// thread pool, streaming statistics, and table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table_printer.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "common/zipf.hpp"

namespace microrec {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad arg");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kNotFound, StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  auto fn = [](bool fail) -> Status {
    MICROREC_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::Ok());
    return Status::Ok();
  };
  EXPECT_TRUE(fn(false).ok());
  EXPECT_EQ(fn(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Units

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(Microseconds(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(Milliseconds(2.0), 2e6);
  EXPECT_DOUBLE_EQ(Seconds(1.0), 1e9);
  EXPECT_DOUBLE_EQ(ToMicros(1500.0), 1.5);
  EXPECT_DOUBLE_EQ(ToMillis(2e6), 2.0);
  EXPECT_DOUBLE_EQ(ToSeconds(1e9), 1.0);
}

TEST(UnitsTest, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(8_GiB, 8ull * 1024 * 1024 * 1024);
}

TEST(UnitsTest, ClockSpec) {
  ClockSpec clock{200.0};
  EXPECT_DOUBLE_EQ(clock.period_ns(), 5.0);
  EXPECT_DOUBLE_EQ(clock.CyclesToNs(10), 50.0);
  EXPECT_DOUBLE_EQ(clock.NsToCycles(50.0), 10.0);
}

TEST(UnitsTest, FormatBytesPicksScale) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * 1_MiB), "3.00 MiB");
  EXPECT_EQ(FormatBytes(5 * 1_GiB), "5.00 GiB");
}

TEST(UnitsTest, FormatNanosPicksScale) {
  EXPECT_EQ(FormatNanos(458.0), "458.0 ns");
  EXPECT_EQ(FormatNanos(Microseconds(16.3)), "16.300 us");
  EXPECT_EQ(FormatNanos(Milliseconds(28.18)), "28.180 ms");
  EXPECT_EQ(FormatNanos(Seconds(1.5)), "1.500 s");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

// DiscardGaussians(n) on one twin, n NextGaussian() calls on the other: the
// twins must then agree on every later draw, the Gaussian spare included.
// Each n runs from a fresh state and from one with a spare pending.
TEST(RngTest, DiscardsMatchTheCallsTheyReplace) {
  const std::uint64_t counts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33};
  for (const bool spare_pending : {false, true}) {
    for (const std::uint64_t n : counts) {
      Rng called(1000 + n);
      Rng skipped(1000 + n);
      if (spare_pending) {
        called.NextGaussian();
        skipped.NextGaussian();
      }
      for (std::uint64_t i = 0; i < n; ++i) called.NextGaussian();
      skipped.DiscardGaussians(n);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(skipped.NextGaussian()),
                  std::bit_cast<std::uint64_t>(called.NextGaussian()))
            << "n=" << n << " spare=" << spare_pending << " draw " << i;
      }
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(skipped.Next(), called.Next())
            << "n=" << n << " spare=" << spare_pending << " draw " << i;
      }
    }
  }
}

TEST(RngTest, HashSeedSeparatesStreams) {
  EXPECT_NE(HashSeed(1, 0), HashSeed(1, 1));
  EXPECT_NE(HashSeed(1, 0), HashSeed(2, 0));
  EXPECT_EQ(HashSeed(1, 0), HashSeed(1, 0));
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfSampler zipf(1000, 0.0);
  Rng rng(1);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(zipf.Sample(rng)));
  }
  EXPECT_NEAR(stats.mean(), 499.5, 15.0);
}

TEST(ZipfTest, SamplesStayInRange) {
  for (double theta : {0.0, 0.5, 0.9, 0.99, 1.2}) {
    ZipfSampler zipf(50, theta);
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(zipf.Sample(rng), 50u) << "theta=" << theta;
    }
  }
}

TEST(ZipfTest, SkewConcentratesOnHotRanks) {
  ZipfSampler zipf(10000, 0.99);
  Rng rng(3);
  int in_top_100 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) in_top_100 += (zipf.Sample(rng) < 100);
  // For theta=0.99 the top 1% of ranks carries roughly half the mass.
  EXPECT_GT(in_top_100, n / 3);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(200, 0.8);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < 200; ++r) sum += zipf.Pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfDecreasesInRank) {
  ZipfSampler zipf(100, 1.1);
  for (std::uint64_t r = 1; r < 100; ++r) {
    EXPECT_LT(zipf.Pmf(r), zipf.Pmf(r - 1));
  }
}

TEST(ZipfTest, SingleElementAlwaysZero) {
  ZipfSampler zipf(1, 0.9);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

/// H_{n,theta} as documented, computed here without the memo: the exact
/// in-order sum up to 2^20 terms, then the Euler-Maclaurin tail.
double DirectHarmonic(std::uint64_t n, double theta) {
  constexpr std::uint64_t kCutoff = 1u << 20;
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= std::min(n, kCutoff); ++i) {
    sum += std::pow(static_cast<double>(i), -theta);
  }
  if (n <= kCutoff) return sum;
  const double a = static_cast<double>(kCutoff);
  const double b = static_cast<double>(n);
  if (std::abs(theta - 1.0) < 1e-12) {
    sum += std::log(b / a);
  } else {
    sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
           (1.0 - theta);
  }
  sum += 0.5 * (std::pow(b, -theta) - std::pow(a, -theta));
  return sum;
}

TEST(ZipfTest, GeneralizedHarmonicMatchesDirectSum) {
  // Shapes no other test uses, so the first call here misses the memo and
  // the second hits it; both must be the direct sum, bit for bit.
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{1001}, (std::uint64_t{1} << 20) - 3,
        (std::uint64_t{1} << 20) + 12'345, std::uint64_t{3} << 24}) {
    for (const double theta : {0.0, 0.37, 1.0, 1.5}) {
      const double first = GeneralizedHarmonic(n, theta);
      const double repeated = GeneralizedHarmonic(n, theta);
      EXPECT_EQ(first, DirectHarmonic(n, theta))
          << "n=" << n << " theta=" << theta;
      EXPECT_EQ(repeated, first) << "n=" << n << " theta=" << theta;
    }
  }
}

TEST(ZipfTest, HarmonicMemoIsThreadSafe) {
  // Four threads race to build the hot-cache fleet's sampler on a cold
  // memo; every copy must agree bit for bit.
  constexpr int kThreads = 4;
  std::vector<std::optional<ZipfSampler>> samplers(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&samplers, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      samplers[t].emplace(std::uint64_t{1} << 20, 0.95);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    for (const std::uint64_t rank : {0u, 1u, 7u, 1000u, (1u << 20) - 1}) {
      EXPECT_EQ(samplers[t]->Pmf(rank), samplers[0]->Pmf(rank));
    }
    Rng a(11);
    Rng b(11);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(samplers[t]->Sample(a), samplers[0]->Sample(b));
    }
  }
}

// Folds one word into a running digest.
void Mix(std::uint64_t& digest, std::uint64_t word) {
  std::uint64_t state = digest ^ word;
  digest = SplitMix64(state);
}

// Pins Sample's output on each of its paths: uniform (theta 0), the
// harmonic inverse CDF (theta 1), the general one, and a normaliser with an
// asymptotic tail (n > 2^20). The digest folds in every rank of 10^5 draws
// and the generator's next word, so it fixes the draws consumed too.
TEST(ZipfTest, SamplesMatchRecordedDigests) {
  struct Case {
    std::uint64_t n;
    double theta;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {1000, 0.9, 0xaee57951c382d4c1ull},
      {(std::uint64_t{1} << 20) + 5, 0.99, 0x00ba84c77f50cf56ull},
      {100, 1.0, 0x9c0fb436a20e041full},
      {7, 0.0, 0xb9fbfa825e059aa1ull},
  };
  for (const Case& c : cases) {
    const ZipfSampler zipf(c.n, c.theta);
    Rng rng(c.n);
    std::uint64_t digest = 0;
    for (int i = 0; i < 100'000; ++i) Mix(digest, zipf.Sample(rng));
    Mix(digest, rng.Next());
    EXPECT_EQ(digest, c.digest) << "n=" << c.n << " theta=" << c.theta;
  }
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversExactRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, GrainBoundsShardSize) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::size_t> shard_sizes;
  pool.ParallelFor(100, /*grain=*/40,
                   [&](std::size_t begin, std::size_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     shard_sizes.push_back(end - begin);
                   });
  // grain 40 over 100 items: shards of 40/40/20, never smaller than the
  // grain except the tail.
  ASSERT_EQ(shard_sizes.size(), 3u);
  std::size_t total = 0;
  for (std::size_t s : shard_sizes) {
    total += s;
    EXPECT_LE(s, 40u);
  }
  EXPECT_EQ(total, 100u);
}

TEST(ThreadPoolTest, GrainIsTheShardSize) {
  // grain 1 over 10 items on 4 workers: 10 one-item shards, claimed by
  // workers as they free up (not 4 even shards of 3/3/3/1).
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::size_t> shard_sizes;
  std::vector<int> hits(10, 0);
  pool.ParallelFor(hits.size(), /*grain=*/1,
                   [&](std::size_t begin, std::size_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     shard_sizes.push_back(end - begin);
                     for (std::size_t i = begin; i < end; ++i) hits[i]++;
                   });
  EXPECT_EQ(shard_sizes, std::vector<std::size_t>(10, 1));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirOwnRange) {
  // Two threads share one pool: each job's shards reach only its own
  // callable, and each call returns once its own range is done.
  ThreadPool pool(3);
  auto run = [&pool](std::vector<int>& hits, std::size_t grain) {
    for (int rep = 0; rep < 50; ++rep) {
      pool.ParallelFor(hits.size(), grain,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) hits[i]++;
                       });
    }
  };
  std::vector<int> a(1000, 0);
  std::vector<int> b(777, 0);
  std::thread other([&] { run(b, 1); });
  run(a, 0);
  other.join();
  for (int h : a) EXPECT_EQ(h, 50);
  for (int h : b) EXPECT_EQ(h, 50);
}

TEST(ThreadPoolTest, GrainLargerThanCountRunsOneShard) {
  ThreadPool pool(4);
  std::atomic<int> shards{0};
  std::vector<int> hits(7, 0);
  pool.ParallelFor(hits.size(), /*grain=*/1000,
                   [&](std::size_t begin, std::size_t end) {
                     ++shards;
                     for (std::size_t i = begin; i < end; ++i) hits[i]++;
                   });
  EXPECT_EQ(shards.load(), 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeWithGrainIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, /*grain=*/16,
                   [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForPropagatesWorkerException) {
  // 100 items over 3 workers shard as [0,34) [34,68) [68,100); the middle
  // shard throws.
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(100, [&](std::size_t begin, std::size_t end) {
      if (begin == 34) throw std::runtime_error("shard at 34");
      for (std::size_t i = begin; i < end; ++i) ++completed;
    });
    FAIL() << "expected the shard's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard at 34");
  }
  // Every other shard still ran to completion before the rethrow (the pool
  // joins all shards first, so no worker ever outlives the caller's frame).
  EXPECT_EQ(completed.load(), 66);
}

TEST(ThreadPoolTest, PoolUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   4, [&](std::size_t, std::size_t) {
                     throw std::logic_error("boom");
                   }),
               std::logic_error);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](std::size_t begin, std::size_t end) {
    counter += static_cast<int>(end - begin);
  });
  EXPECT_EQ(counter.load(), 10);
}

// ---------------------------------------------------------------- Stats

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-9);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(PercentileTrackerTest, ExactPercentilesOnKnownData) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.Add(i);
  EXPECT_NEAR(t.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(t.Percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(t.Percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(t.Percentile(0.99), 99.01, 1e-6);
  EXPECT_DOUBLE_EQ(t.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(t.Max(), 100.0);
}

TEST(PercentileTrackerTest, InterleavedAddAndQuery) {
  PercentileTracker t;
  t.Add(10.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 10.0);
  t.Add(20.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 20.0);
  t.Add(0.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.0), 0.0);
}

TEST(PercentileTrackerTest, EmptyTrackerAborts) {
  PercentileTracker t;
  EXPECT_DEATH(t.Percentile(0.5), "MICROREC_CHECK");
  EXPECT_DEATH(t.Mean(), "MICROREC_CHECK");
  EXPECT_DEATH(t.Max(), "MICROREC_CHECK");
}

TEST(PercentileTrackerTest, OutOfRangeQuantileAborts) {
  PercentileTracker t;
  t.Add(1.0);
  EXPECT_DEATH(t.Percentile(-0.01), "MICROREC_CHECK");
  EXPECT_DEATH(t.Percentile(1.01), "MICROREC_CHECK");
}

TEST(PercentileTrackerTest, SingleSampleAnswersEveryQuantile) {
  PercentileTracker t;
  t.Add(7.5);
  EXPECT_DOUBLE_EQ(t.Percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 7.5);
  EXPECT_DOUBLE_EQ(t.Mean(), 7.5);
  EXPECT_DOUBLE_EQ(t.Max(), 7.5);
}

TEST(PercentileTrackerTest, ConcurrentConstReadsAreSafe) {
  // The lazy sort runs under a mutex, so the first Percentile() call
  // racing from many threads must produce consistent answers (this is the
  // scenario the unguarded mutable sort made a data race).
  PercentileTracker t;
  for (int i = 100; i >= 1; --i) t.Add(i);
  std::vector<std::thread> readers;
  std::vector<double> results(8, 0.0);
  for (std::size_t k = 0; k < results.size(); ++k) {
    readers.emplace_back([&t, &results, k] {
      results[k] = t.Percentile(0.5) + t.Percentile(0.99) + t.Max();
    });
  }
  for (auto& th : readers) th.join();
  for (const double r : results) EXPECT_DOUBLE_EQ(r, results[0]);
}

// ---------------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, RendersHeaderAndRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"beta", "2"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("| beta"), std::string::npos);
}

TEST(TablePrinterTest, SectionsAndShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.AddSection("Smaller Model");
  table.AddRow({"x"});  // short row padded
  const std::string out = table.ToString();
  EXPECT_NE(out.find("Smaller Model"), std::string::npos);
  EXPECT_NE(out.find("| x"), std::string::npos);
}

TEST(TablePrinterTest, NumericFormatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Sci(305000.0, 2), "3.05e+05");
  EXPECT_EQ(TablePrinter::Speedup(13.82, 2), "13.82x");
}

}  // namespace
}  // namespace microrec
