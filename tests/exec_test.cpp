// Tests for the deterministic parallel experiment engine (src/exec/):
// index-ordered results, the SubSeed scheme, and the end-to-end contract
// that an N-thread run is bit-identical to 1 thread -- including a full
// update-aware serving sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/microrec.hpp"
#include "exec/parallel.hpp"
#include "serving/serving_sim.hpp"
#include "update/serving_update_sim.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {
namespace {

using exec::ExecConfig;
using exec::ParallelRunner;

// ---------------------------------------------------------------- basics

TEST(ParallelRunnerTest, ResolveThreadsZeroMeansHardware) {
  EXPECT_EQ(exec::ResolveThreads(0), exec::DefaultThreads());
  EXPECT_EQ(exec::ResolveThreads(1), 1u);
  EXPECT_EQ(exec::ResolveThreads(7), 7u);
  EXPECT_GE(exec::DefaultThreads(), 1u);
}

TEST(ParallelRunnerTest, MapReturnsResultsInIndexOrder) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ParallelRunner runner(ExecConfig::WithThreads(threads));
    const auto results =
        runner.Map(100, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(results.size(), 100u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], 3 * i + 1);
    }
  }
}

TEST(ParallelRunnerTest, EmptyMapIsNoop) {
  ParallelRunner runner(ExecConfig::WithThreads(4));
  const auto results = runner.Map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(results.empty());
}

TEST(ParallelRunnerTest, SubSeedMatchesHashSeedScheme) {
  EXPECT_EQ(ParallelRunner::SubSeed(42, 0), HashSeed(42, 0));
  EXPECT_EQ(ParallelRunner::SubSeed(42, 3), HashSeed(42, 3));
  // Distinct per index and per base.
  EXPECT_NE(ParallelRunner::SubSeed(42, 0), ParallelRunner::SubSeed(42, 1));
  EXPECT_NE(ParallelRunner::SubSeed(42, 0), ParallelRunner::SubSeed(43, 0));
}

TEST(ParallelRunnerTest, ReplicateIdenticalAcrossThreadCounts) {
  // A Monte-Carlo estimate (mean of an RNG stream per replication) must be
  // bit-identical at any thread count: each replication owns its sub-seeded
  // stream, and the reduction runs in replication order.
  auto run = [](std::size_t threads) {
    ParallelRunner runner(ExecConfig::WithThreads(threads));
    const auto means = runner.Map(32, [](std::size_t rep) {
      Rng rng(ParallelRunner::SubSeed(/*base_seed=*/99, rep));
      double sum = 0.0;
      for (int i = 0; i < 1000; ++i) sum += rng.NextDouble();
      return sum / 1000.0;
    });
    double total = 0.0;
    for (double m : means) total += m;
    return total;
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelRunnerTest, WorkerExceptionPropagates) {
  ParallelRunner runner(ExecConfig::WithThreads(4));
  EXPECT_THROW(runner.Map(64,
                          [](std::size_t i) -> int {
                            if (i == 13) throw std::runtime_error("point 13");
                            return 0;
                          }),
               std::runtime_error);
}

// ------------------------------------------------------- end-to-end sweeps

TEST(ParallelDeterminismTest, UpdateServingSweepIdenticalAcrossThreads) {
  const auto model = DlrmRmc2Model(4, 16);
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(model, options).value();
  const auto arrivals = PoissonArrivals(150'000.0, 3000, 42);
  const double rates[] = {0.0, 1e5, 1e6, 1e7};

  auto sweep = [&](std::size_t threads) {
    ParallelRunner runner(ExecConfig::WithThreads(threads));
    return runner.Map(4, [&](std::size_t k) {
      UpdateServingConfig config;
      config.item_latency_ns = engine.timing().item_latency_ns;
      config.initiation_interval_ns = engine.timing().initiation_interval_ns;
      config.deltas.update_row_qps = rates[k];
      config.deltas.seed = 43;
      config.policy = WritePolicy::kFairInterleave;
      return SimulateServingWithUpdates(model, engine.plan(),
                                        options.platform, arrivals, config);
    });
  };

  const auto serial = sweep(1);
  const auto parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    // Bit-identical ServingReports: double ==, no tolerance.
    EXPECT_EQ(serial[k].serving.p50, parallel[k].serving.p50) << "point " << k;
    EXPECT_EQ(serial[k].serving.p99, parallel[k].serving.p99) << "point " << k;
    EXPECT_EQ(serial[k].serving.mean, parallel[k].serving.mean);
    EXPECT_EQ(serial[k].serving.max, parallel[k].serving.max);
    EXPECT_EQ(serial[k].staleness_p99, parallel[k].staleness_p99);
    EXPECT_EQ(serial[k].update_rows, parallel[k].update_rows);
    EXPECT_EQ(serial[k].publishes, parallel[k].publishes);
    EXPECT_EQ(serial[k].delayed_queries, parallel[k].delayed_queries);
    EXPECT_EQ(serial[k].migrations, parallel[k].migrations);
  }
}

}  // namespace
}  // namespace microrec
