// Tests for replicated-pipeline serving (a sched::PipelineBackend with one
// replica per card) and fleet provisioning.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "cli/commands.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "serving/pipeline_server.hpp"
#include "serving/scaleout.hpp"
#include "serving/serving_sim.hpp"

namespace microrec {
namespace {

ServingReport Replicated(const std::vector<Nanoseconds>& arrivals,
                         std::uint32_t replicas, Nanoseconds item_latency_ns,
                         Nanoseconds ii_ns, Nanoseconds sla_ns) {
  sched::PipelineBackendConfig config;
  config.replicas = replicas;
  config.item_latency_ns = item_latency_ns;
  config.initiation_interval_ns = ii_ns;
  return sched::ServeOnBackend(
             arrivals, std::make_unique<sched::PipelineBackend>(config),
             sla_ns)
      .serving;
}

TEST(ReplicatedPipelinesTest, OneReplicaMatchesSinglePipeline) {
  const auto arrivals = PoissonArrivals(50'000.0, 5'000, 3);
  PipelineServer pipeline(20'000.0, 3'300.0);
  std::vector<Nanoseconds> completions;
  for (const Nanoseconds arrival : arrivals) {
    completions.push_back(pipeline.Admit(arrival));
  }
  const auto single =
      SummarizeServing(arrivals, completions, Milliseconds(30));
  const auto replicated =
      Replicated(arrivals, 1, 20'000.0, 3'300.0, Milliseconds(30));
  EXPECT_DOUBLE_EQ(replicated.p99, single.p99);
  EXPECT_DOUBLE_EQ(replicated.max, single.max);
}

TEST(ReplicatedPipelinesTest, ReplicasAbsorbOverload) {
  // Offered load 2x one pipeline's capacity: one replica diverges, two
  // keep latency flat.
  const double capacity = kNanosPerSecond / 3'300.0;  // ~3e5 items/s
  const auto arrivals = PoissonArrivals(1.8 * capacity, 60'000, 5);
  const auto one =
      Replicated(arrivals, 1, 20'000.0, 3'300.0, Milliseconds(30));
  const auto two =
      Replicated(arrivals, 2, 20'000.0, 3'300.0, Milliseconds(30));
  EXPECT_GT(one.p99, Milliseconds(1));
  EXPECT_LT(two.p99, Microseconds(200));
  EXPECT_GT(one.sla_violation_rate, 0.5);
  EXPECT_DOUBLE_EQ(two.sla_violation_rate, 0.0);
}

TEST(ReplicatedPipelinesTest, LatencyNonIncreasingInReplicas) {
  const auto arrivals = PoissonArrivals(500'000.0, 20'000, 7);
  Nanoseconds prev = 1e18;
  for (std::uint32_t replicas : {1u, 2u, 4u, 8u}) {
    const auto report =
        Replicated(arrivals, replicas, 20'000.0, 3'300.0, Milliseconds(30));
    EXPECT_LE(report.p99, prev + 1.0) << replicas;
    prev = report.p99;
  }
}

TEST(ReplicatedPipelinesTest, ReplicasPastQueryCountChangeNothing) {
  // Least-loaded dispatch sends each query to an unused replica while one
  // exists, so with a replica per query every query starts at its arrival
  // and further replicas change no completion time. `microrec scaleout`
  // simulates at most one replica per query on this basis.
  const std::uint32_t queries = 400;
  const auto arrivals = PoissonArrivals(5e6, queries, 13);
  const ServingReport exact =
      Replicated(arrivals, queries, 20'000.0, 3'300.0, Microseconds(100));
  for (std::uint32_t replicas : {queries + 1, 4 * queries}) {
    const ServingReport more =
        Replicated(arrivals, replicas, 20'000.0, 3'300.0, Microseconds(100));
    EXPECT_EQ(more.queries, exact.queries) << replicas;
    EXPECT_EQ(more.offered_qps, exact.offered_qps) << replicas;
    EXPECT_EQ(more.achieved_qps, exact.achieved_qps) << replicas;
    EXPECT_EQ(more.p50, exact.p50) << replicas;
    EXPECT_EQ(more.p95, exact.p95) << replicas;
    EXPECT_EQ(more.p99, exact.p99) << replicas;
    EXPECT_EQ(more.max, exact.max) << replicas;
    EXPECT_EQ(more.mean, exact.mean) << replicas;
    EXPECT_EQ(more.sla_violation_rate, exact.sla_violation_rate) << replicas;
  }
}

TEST(ReplicatedPipelinesTest, UnloadedLatencyIsItemLatency) {
  std::vector<Nanoseconds> arrivals = {0.0, 1e9, 2e9};
  const auto report =
      Replicated(arrivals, 4, 20'000.0, 3'300.0, Milliseconds(30));
  EXPECT_DOUBLE_EQ(report.max, 20'000.0);
}

TEST(ProvisionFleetTest, ExactMath) {
  DeviceClass fpga{3.0e5, 1.65};
  const FleetPlan plan = ProvisionFleet(1.0e6, fpga, 1.25).value();
  // 1e6 * 1.25 / 3e5 = 4.17 -> 5 devices.
  EXPECT_EQ(plan.devices, 5u);
  EXPECT_DOUBLE_EQ(plan.dollars_per_hour, 5 * 1.65);
  EXPECT_DOUBLE_EQ(plan.capacity_items_per_s, 1.5e6);
  EXPECT_NEAR(plan.utilization, 1.0e6 / 1.5e6, 1e-12);
}

TEST(ProvisionFleetTest, AtLeastOneDevice) {
  DeviceClass big{1.0e9, 2.0};
  const FleetPlan plan = ProvisionFleet(10.0, big).value();
  EXPECT_EQ(plan.devices, 1u);
}

TEST(ProvisionFleetTest, FpgaFleetCheaperThanCpuAtPaperNumbers) {
  // Paper cost appendix at fleet scale: serving 1M items/s of the small
  // model takes ~4x fewer dollars on FPGAs.
  DeviceClass cpu{7.27e4, 1.82};   // CPU B=2048 throughput, $/h
  DeviceClass fpga{2.84e5, 1.65};  // our fixed16 simulated throughput
  const auto cpu_plan = ProvisionFleet(1.0e6, cpu).value();
  const auto fpga_plan = ProvisionFleet(1.0e6, fpga).value();
  EXPECT_LT(fpga_plan.dollars_per_hour, cpu_plan.dollars_per_hour / 3.0);
  EXPECT_GE(cpu_plan.capacity_items_per_s, 1.0e6);
  EXPECT_GE(fpga_plan.capacity_items_per_s, 1.0e6);
}

// ---- Bug-hardening: recoverable input errors return Status, they do not
// divide by zero or silently mis-report ----

TEST(ScaleoutHardeningTest, RejectsDegenerateInputs) {
  // The scale-out study's input boundary is the `scaleout` command: a
  // degenerate sweep comes back as a Status, never a zero-card fleet or an
  // empty stream reaching the simulation.
  const std::string model_path =
      ::testing::TempDir() + "scaleout_hardening_model.txt";
  std::ostringstream out;
  ASSERT_TRUE(
      cli::RunCli({"modelgen", "small", "--out", model_path}, out).ok());
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"--queries", "0"},
        std::vector<std::string>{"--points", "0"},
        std::vector<std::string>{"--qps-min", "0"},
        std::vector<std::string>{"--sla-us", "0"}}) {
    std::vector<std::string> args = {"scaleout", model_path};
    args.insert(args.end(), bad.begin(), bad.end());
    EXPECT_FALSE(cli::RunCli(args, out).ok()) << bad[0];
  }
}

TEST(ScaleoutHardeningTest, RejectsNonMonotonicArrivals) {
  // Below the CLI the serving loop's input contract is a nondecreasing
  // stream: a backwards one aborts instead of being served out of order.
  const std::vector<Nanoseconds> backwards = {0.0, 500.0, 400.0, 900.0};
  EXPECT_DEATH(
      Replicated(backwards, 2, 20'000.0, 3'300.0, Milliseconds(30)),
      "MICROREC_CHECK");
}

TEST(ProvisionFleetTest, RejectsZeroThroughputDevice) {
  const auto result = ProvisionFleet(1.0e6, DeviceClass{0.0, 1.0});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("throughput"), std::string::npos);
}

TEST(ProvisionFleetTest, RejectsBadTargetAndHeadroom) {
  DeviceClass fpga{3.0e5, 1.65};
  EXPECT_FALSE(ProvisionFleet(0.0, fpga).ok());
  EXPECT_FALSE(ProvisionFleet(-5.0, fpga).ok());
  EXPECT_FALSE(ProvisionFleet(1.0e6, fpga, 0.5).ok());
}

}  // namespace
}  // namespace microrec
