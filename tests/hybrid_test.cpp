// Tests for the hybrid CPU + FPGA fleet: an FPGA pipeline pool (backend 0)
// and a batched CPU pool (backend 1) under the spill policy, which moves a
// query to the CPUs once the FPGA pool's backlog passes a threshold.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "serving/pipeline_server.hpp"
#include "serving/serving_sim.hpp"

namespace microrec {
namespace {

sched::PipelineBackendConfig FpgaPool(std::uint32_t replicas = 1) {
  sched::PipelineBackendConfig config;
  config.replicas = replicas;
  config.item_latency_ns = 20'000.0;        // 20 us
  config.initiation_interval_ns = 3'300.0;  // ~3e5 items/s
  return config;
}

sched::CpuBackendConfig CpuPool(std::uint32_t servers = 2) {
  sched::CpuBackendConfig config;
  config.servers = servers;
  config.max_batch = 256;
  config.batch_timeout_ns = Milliseconds(5);
  config.fixed_overhead_ns = Milliseconds(3.0);
  config.per_item_ns = Microseconds(12.0);
  return config;
}

/// usage[0] counts the queries the FPGA pool served, usage[1] the spills.
sched::SchedReport Hybrid(const std::vector<Nanoseconds>& arrivals,
                          const sched::PipelineBackendConfig& fpga,
                          const sched::CpuBackendConfig& cpu,
                          Nanoseconds spill_threshold_ns, Nanoseconds sla_ns) {
  std::vector<std::unique_ptr<sched::Backend>> fleet;
  fleet.push_back(std::make_unique<sched::PipelineBackend>(fpga));
  fleet.push_back(std::make_unique<sched::CpuBatchedBackend>(cpu));
  const auto policy = sched::MakeSpillPolicy(0, 1, spill_threshold_ns);
  sched::FtOptions options;
  options.base.sla_ns = sla_ns;
  return sched::SimulateFaultTolerantServing(
             sched::SingleItemQueries(arrivals), fleet, *policy, options)
      .base;
}

/// The FPGA pool with no CPU pool to spill to.
ServingReport FpgaOnly(const std::vector<Nanoseconds>& arrivals,
                       const sched::PipelineBackendConfig& fpga,
                       Nanoseconds sla_ns) {
  return sched::ServeOnBackend(
             arrivals, std::make_unique<sched::PipelineBackend>(fpga), sla_ns)
      .serving;
}

TEST(HybridFleetTest, LightLoadStaysOnFpga) {
  const auto arrivals = PoissonArrivals(50'000.0, 10'000, 3);
  const auto report = Hybrid(arrivals, FpgaPool(), CpuPool(),
                             Milliseconds(1), Milliseconds(30));
  EXPECT_EQ(report.usage[1].queries, 0u);
  EXPECT_EQ(report.usage[0].queries, 10'000u);
  EXPECT_LT(report.serving.p99, Microseconds(100));
}

TEST(HybridFleetTest, MatchesPureFpgaWhenNoSpill) {
  // Below the spill threshold the CPU pool never sees a query, and the
  // fleet is exactly the bare pipeline recurrence.
  const auto arrivals = PoissonArrivals(100'000.0, 5'000, 5);
  const auto fpga = FpgaPool();
  const auto hybrid = Hybrid(arrivals, fpga, CpuPool(), Milliseconds(1),
                             Milliseconds(30));
  PipelineServer pipeline(fpga.item_latency_ns, fpga.initiation_interval_ns);
  std::vector<Nanoseconds> completions;
  for (const Nanoseconds arrival : arrivals) {
    completions.push_back(pipeline.Admit(arrival));
  }
  const auto pure = SummarizeServing(arrivals, completions, Milliseconds(30));
  EXPECT_EQ(hybrid.usage[1].queries, 0u);
  EXPECT_DOUBLE_EQ(hybrid.serving.p99, pure.p99);
  EXPECT_DOUBLE_EQ(hybrid.serving.max, pure.max);
}

TEST(HybridFleetTest, OverloadSpillsToCpu) {
  // Offered 1.5x FPGA capacity: the surplus must go to the CPU pool.
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.5 * capacity, 50'000, 7);
  const auto report = Hybrid(arrivals, FpgaPool(), CpuPool(),
                             Milliseconds(1), Milliseconds(30));
  EXPECT_GT(report.usage[1].queries, 5'000u);
  EXPECT_GT(report.usage[0].queries, 25'000u);
  EXPECT_EQ(report.usage[1].queries + report.usage[0].queries, 50'000u);
}

TEST(HybridFleetTest, SpillProtectsFpgaTailVersusNoCpu) {
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.5 * capacity, 50'000, 9);
  // Provision the CPU pool for the ~0.5x-capacity spill stream: each
  // server sustains ~42k batched items/s, the spill is ~150k/s.
  const auto hybrid = Hybrid(arrivals, FpgaPool(), CpuPool(/*servers=*/6),
                             Milliseconds(1), Milliseconds(30));
  const auto pure = FpgaOnly(arrivals, FpgaPool(), Milliseconds(30));
  // Without spill the FPGA queue diverges (latency grows with backlog);
  // with the CPU pool the p99 is bounded by a CPU batch (~several ms).
  EXPECT_GT(pure.p99, hybrid.serving.p99);
  EXPECT_LT(hybrid.serving.sla_violation_rate,
            pure.sla_violation_rate + 1e-12);
  EXPECT_LT(hybrid.serving.p99, Milliseconds(30));
}

TEST(HybridFleetTest, MedianStaysMicrosecondUnderOverload) {
  // Most queries still ride the FPGA: p50 remains microseconds even while
  // spilled queries pay CPU-batch milliseconds.
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.3 * capacity, 50'000, 11);
  const auto report = Hybrid(arrivals, FpgaPool(), CpuPool(),
                             Milliseconds(1), Milliseconds(30));
  EXPECT_LT(report.serving.p50, Milliseconds(1.5));
  EXPECT_GT(report.serving.p99, report.serving.p50);
}

TEST(HybridFleetTest, MoreFpgasReduceSpills) {
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.5 * capacity, 30'000, 13);
  const auto spill_one = Hybrid(arrivals, FpgaPool(1), CpuPool(),
                                Milliseconds(1), Milliseconds(30));
  const auto spill_two = Hybrid(arrivals, FpgaPool(2), CpuPool(),
                                Milliseconds(1), Milliseconds(30));
  EXPECT_LT(spill_two.usage[1].queries, spill_one.usage[1].queries);
  EXPECT_EQ(spill_two.usage[1].queries, 0u);  // 2 replicas cover 1.5x load
}

TEST(HybridFleetTest, ZeroTimeoutCpuBatchesLaunchImmediately) {
  // With a zero aggregation window, spilled queries become singleton
  // batches that launch as soon as the server frees.
  sched::CpuBackendConfig cpu = CpuPool();
  cpu.batch_timeout_ns = 0.0;
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.2 * capacity, 10'000, 17);
  // Spill almost everything queued.
  const auto report =
      Hybrid(arrivals, FpgaPool(), cpu, /*spill_threshold_ns=*/1.0,
             Milliseconds(60));
  EXPECT_GT(report.usage[1].queries, 0u);
  EXPECT_EQ(report.usage[1].queries + report.usage[0].queries, 10'000u);
  EXPECT_GT(report.serving.mean, 0.0);
}

TEST(HybridFleetTest, FinalFlushDrainsTailQueries) {
  // A burst at the very end of the stream must still be completed (the
  // final flush launches partial batches past the last arrival).
  std::vector<Nanoseconds> arrivals;
  for (int i = 0; i < 100; ++i) arrivals.push_back(static_cast<double>(i));
  const auto report = Hybrid(arrivals, FpgaPool(), CpuPool(),
                             /*spill_threshold_ns=*/1.0, Milliseconds(60));
  EXPECT_EQ(report.serving.queries, 100u);
  // Nobody is left with a zero completion (latency would be <= 0).
  EXPECT_GT(report.serving.p50, 0.0);
}

TEST(HybridFleetTest, AllCompletionsAssigned) {
  // Every query gets a completion strictly after its arrival.
  const auto arrivals = PoissonArrivals(400'000.0, 20'000, 15);
  const auto report = Hybrid(arrivals, FpgaPool(), CpuPool(),
                             Milliseconds(1), Milliseconds(30));
  EXPECT_EQ(report.serving.queries, 20'000u);
  EXPECT_GT(report.serving.mean, 0.0);
  EXPECT_GE(report.serving.p50, 0.0);
}

}  // namespace
}  // namespace microrec
