// Tests for the online-serving paths: arrivals, the percentile summary, and
// the pipelined and batched servers, each served as one sched::Backend
// through the event loop (a static policy over a one-backend fleet).
#include <gtest/gtest.h>

#include <memory>

#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "serving/serving_sim.hpp"

namespace microrec {
namespace {

ServingReport Pipelined(const std::vector<Nanoseconds>& arrivals,
                        Nanoseconds item_latency_ns, Nanoseconds ii_ns,
                        Nanoseconds sla_ns) {
  sched::PipelineBackendConfig config;
  config.item_latency_ns = item_latency_ns;
  config.initiation_interval_ns = ii_ns;
  return sched::ServeOnBackend(
             arrivals, std::make_unique<sched::PipelineBackend>(config),
             sla_ns)
      .serving;
}

/// One batched server whose batch of b queries takes fixed + b * per_query.
ServingReport Batched(const std::vector<Nanoseconds>& arrivals,
                      std::uint64_t max_batch, Nanoseconds timeout_ns,
                      Nanoseconds fixed_ns, Nanoseconds per_query_ns,
                      Nanoseconds sla_ns) {
  sched::CpuBackendConfig config;
  config.max_batch = max_batch;
  config.batch_timeout_ns = timeout_ns;
  config.fixed_overhead_ns = fixed_ns;
  config.per_item_ns = per_query_ns;
  return sched::ServeOnBackend(
             arrivals, std::make_unique<sched::CpuBatchedBackend>(config),
             sla_ns)
      .serving;
}

// ------------------------------------------------------ Arrivals

TEST(PoissonArrivalsTest, MonotoneNonNegative) {
  const auto arrivals = PoissonArrivals(1000.0, 500, 1);
  ASSERT_EQ(arrivals.size(), 500u);
  EXPECT_GT(arrivals[0], 0.0);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  }
}

TEST(PoissonArrivalsTest, RateApproximatelyRespected) {
  const double rate = 50'000.0;
  const auto arrivals = PoissonArrivals(rate, 20'000, 2);
  const double measured =
      static_cast<double>(arrivals.size() - 1) /
      ToSeconds(arrivals.back() - arrivals.front());
  EXPECT_NEAR(measured, rate, rate * 0.05);
}

TEST(PoissonArrivalsTest, DeterministicPerSeed) {
  EXPECT_EQ(PoissonArrivals(100.0, 50, 7), PoissonArrivals(100.0, 50, 7));
  EXPECT_NE(PoissonArrivals(100.0, 50, 7), PoissonArrivals(100.0, 50, 8));
}

// ------------------------------------------------------ Pipelined server

TEST(PipelinedServerTest, UnloadedLatencyIsItemLatency) {
  // Arrivals far apart: every query sees exactly the item latency.
  std::vector<Nanoseconds> arrivals = {0.0, 1e6, 2e6, 3e6};
  const auto report = Pipelined(arrivals, /*item=*/20'000.0, /*ii=*/4'000.0,
                                /*sla=*/Milliseconds(30));
  EXPECT_DOUBLE_EQ(report.p50, 20'000.0);
  EXPECT_DOUBLE_EQ(report.max, 20'000.0);
  EXPECT_DOUBLE_EQ(report.sla_violation_rate, 0.0);
}

TEST(PipelinedServerTest, BackToBackQueriesSpaceByIi) {
  // Two simultaneous arrivals: the second starts one II later.
  std::vector<Nanoseconds> arrivals = {0.0, 0.0};
  const auto report =
      Pipelined(arrivals, 20'000.0, 4'000.0, Milliseconds(30));
  EXPECT_DOUBLE_EQ(report.max, 24'000.0);
}

TEST(PipelinedServerTest, OverloadGrowsQueue) {
  // Offered rate above 1/II: latency must grow with position.
  std::vector<Nanoseconds> arrivals;
  for (int i = 0; i < 100; ++i) arrivals.push_back(i * 1'000.0);  // 1 us gaps
  const auto report =
      Pipelined(arrivals, 20'000.0, 4'000.0, Milliseconds(30));
  // Query 99 queued behind 99 IIs: ~99*4us - 99us arrival offset + 20us.
  EXPECT_NEAR(report.max, 99 * 4'000.0 - 99'000.0 + 20'000.0, 1.0);
}

// ------------------------------------------------------ Batched server

TEST(BatchedServerTest, SingleQueryProcessedAlone) {
  std::vector<Nanoseconds> arrivals = {100.0};
  const auto report = Batched(arrivals, /*max_batch=*/64, /*timeout=*/1e6,
                              /*fixed=*/5e6, /*per_query=*/0.0,
                              Milliseconds(30));
  // Waits the full timeout for more queries, then processes.
  EXPECT_DOUBLE_EQ(report.max, 1e6 + 5e6);
}

TEST(BatchedServerTest, FullBatchLaunchesAtLastArrival) {
  // max_batch=2: the first two arrivals form a batch launched when the
  // second arrives (before the timeout).
  std::vector<Nanoseconds> arrivals = {0.0, 1000.0};
  const auto report = Batched(arrivals, 2, /*timeout=*/1e9, 0.0, 100.0,
                              Milliseconds(30));
  // Both complete at 1000 + 200; the first waited 1200, the second 200.
  EXPECT_DOUBLE_EQ(report.max, 1200.0);
  EXPECT_DOUBLE_EQ(report.p50, 700.0);  // midpoint of {200, 1200}
}

TEST(BatchedServerTest, TimeoutSplitsBatches) {
  // Second query arrives after the window closes: two singleton batches of
  // 100 ns each (one batch of two would take 200 ns).
  std::vector<Nanoseconds> arrivals = {0.0, 5000.0};
  const auto report = Batched(arrivals, 64, /*timeout=*/1000.0, 0.0, 100.0,
                              Milliseconds(30));
  EXPECT_DOUBLE_EQ(report.max, 1100.0);
  EXPECT_DOUBLE_EQ(report.p50, 1100.0);
}

TEST(BatchedServerTest, ServerBusyDelaysNextBatch) {
  // Batch 1 takes 10 us; queries arriving meanwhile queue for batch 2.
  std::vector<Nanoseconds> arrivals = {0.0, 2000.0};
  const auto report = Batched(arrivals, 1, /*timeout=*/0.0, 10'000.0, 0.0,
                              Milliseconds(30));
  // Query 2: server free at 10000, processed until 20000; latency 18000.
  EXPECT_DOUBLE_EQ(report.max, 18'000.0);
}

TEST(BatchedServerTest, SlaViolationsCounted) {
  std::vector<Nanoseconds> arrivals = {0.0, 0.0, 0.0, 0.0};
  const auto report = Batched(arrivals, 4, 0.0, 2e6, 0.0, /*sla=*/1e6);
  EXPECT_DOUBLE_EQ(report.sla_violation_rate, 1.0);
}

// ------------------------------------------------------ Comparison property

TEST(ServingComparisonTest, PipelineBeatsBatchingAtRecommendationScale) {
  // The paper's argument (section 4.1): item-streaming removes both batch
  // aggregation wait and large-batch processing time. At a realistic load,
  // MicroRec's p99 must be orders of magnitude below the batched CPU's.
  const auto arrivals = PoissonArrivals(/*rate_qps=*/50'000.0, 20'000, 11);

  // CPU: batch 2048, 10 ms aggregation timeout, ~28 ms per 2048-batch
  // (paper Table 2).
  const auto cpu = Batched(arrivals, 2048, Milliseconds(10),
                           Milliseconds(3.3), Microseconds(12.2),
                           Milliseconds(30));

  // MicroRec: 16.3 us item latency, II from 3.05e5 items/s.
  const auto fpga = Pipelined(arrivals, Microseconds(16.3),
                              kNanosPerSecond / 3.05e5, Milliseconds(30));

  EXPECT_LT(fpga.p99, Microseconds(100));
  EXPECT_GT(cpu.p99, Milliseconds(5));
  EXPECT_LT(fpga.p99 * 100, cpu.p99);
  EXPECT_DOUBLE_EQ(fpga.sla_violation_rate, 0.0);
}

TEST(ServingReportTest, PercentilesOrdered) {
  const auto arrivals = PoissonArrivals(10'000.0, 5'000, 13);
  const auto report = Pipelined(arrivals, 20'000.0, 3'300.0,
                                Milliseconds(30));
  EXPECT_LE(report.p50, report.p95);
  EXPECT_LE(report.p95, report.p99);
  EXPECT_LE(report.p99, report.max);
  EXPECT_GT(report.mean, 0.0);
  EXPECT_EQ(report.queries, 5000u);
  EXPECT_FALSE(report.ToString().empty());
}

}  // namespace
}  // namespace microrec
