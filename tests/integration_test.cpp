// Cross-module integration tests: full engine vs CPU reference on shared
// storage, placement plans driven through the event-driven memory
// simulator, and the paper's headline comparisons reproduced end to end.
#include <gtest/gtest.h>

#include "core/microrec.hpp"
#include "cpu/cpu_engine.hpp"
#include "cpu/paper_baseline.hpp"
#include "memsim/hybrid_memory.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "serving/serving_sim.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

namespace microrec {
namespace {

TEST(IntegrationTest, EngineAndCpuScoreIdenticalQueriesConsistently) {
  // Shared seeds mean the accelerator's materialized tables and quantized
  // weights derive from the same float model as the CPU engine; outputs
  // must agree within quantization error over a large query stream.
  RecModelSpec model;
  model.name = "integration";
  model.seed = 1234;
  for (std::uint32_t i = 0; i < 20; ++i) {
    TableSpec spec;
    spec.id = i;
    spec.name = "t" + std::to_string(i);
    spec.rows = 100 + i * 37;
    spec.dim = (i % 3 == 0) ? 16 : ((i % 3 == 1) ? 8 : 4);
    model.tables.push_back(spec);
  }
  model.mlp.input_dim = model.FeatureLength();
  model.mlp.hidden = {128, 64, 32};

  EngineOptions options;
  options.precision = Precision::kFixed32;
  auto engine = MicroRecEngine::Build(model, options);
  ASSERT_TRUE(engine.ok());
  CpuEngine cpu(model, 1 << 20);

  QueryGenerator gen(model, IndexDistribution::kZipf, 5, 0.9);
  const auto queries = gen.NextBatch(200);
  const auto cpu_scores = cpu.InferBatch(queries);
  auto fpga_scores = engine->InferBatch(queries);
  ASSERT_TRUE(fpga_scores.ok());
  double worst = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(cpu_scores[i]) -
                                     static_cast<double>((*fpga_scores)[i])));
  }
  EXPECT_LT(worst, 2e-3);
}

TEST(IntegrationTest, PlanDrivenThroughEventSimulatorMatchesPlanMetric) {
  // The latency the placement search reports must equal what the
  // event-driven memory simulator observes when the plan's accesses are
  // actually issued.
  for (bool large : {false, true}) {
    const auto model = large ? LargeProductionModel() : SmallProductionModel();
    EngineOptions options;
    options.materialize = false;
    auto engine = MicroRecEngine::Build(model, options);
    ASSERT_TRUE(engine.ok());
    HybridMemorySystem mem(options.platform);
    const auto accesses =
        engine->plan().ToBankAccesses(model.lookups_per_table);
    const auto result = mem.IssueBatch(accesses);
    EXPECT_NEAR(result.latency_ns(), engine->plan().lookup_latency_ns, 1e-6)
        << model.name;
  }
}

TEST(IntegrationTest, PipelinedBatchesThroughMemorySimulator) {
  // Stream 100 back-to-back inferences through the memory system at the
  // pipeline's initiation interval: per-item lookup latency must not
  // degrade (the embedding stage is not the bottleneck -- section 5.4).
  const auto model = SmallProductionModel();
  EngineOptions options;
  options.materialize = false;
  auto engine = MicroRecEngine::Build(model, options);
  ASSERT_TRUE(engine.ok());
  HybridMemorySystem mem(options.platform);
  const auto accesses = engine->plan().ToBankAccesses(1);
  const Nanoseconds ii = engine->timing().initiation_interval_ns;
  ASSERT_GT(ii, engine->plan().lookup_latency_ns);
  Nanoseconds worst = 0.0;
  for (int item = 0; item < 100; ++item) {
    const auto result = mem.IssueBatch(accesses, item * ii);
    worst = std::max(worst, result.latency_ns());
  }
  EXPECT_NEAR(worst, engine->plan().lookup_latency_ns, 1e-6);
}

TEST(IntegrationTest, EmbeddingSpeedupOverPaperCpuBaselineInPaperRange) {
  // Table 4's headline: 13.8-14.7x speedup on the embedding layer against
  // the CPU baseline at batch 2048 (per-item).
  for (bool large : {false, true}) {
    const auto model = large ? LargeProductionModel() : SmallProductionModel();
    EngineOptions options;
    options.materialize = false;
    auto engine = MicroRecEngine::Build(model, options);
    ASSERT_TRUE(engine.ok());
    const Nanoseconds cpu_batch = PaperEmbeddingLatency(large, 2048).value();
    const Nanoseconds cpu_per_item = cpu_batch / 2048.0;
    const double speedup = cpu_per_item / engine->EmbeddingLookupLatency();
    EXPECT_GT(speedup, 6.0) << model.name;
    EXPECT_LT(speedup, 30.0) << model.name;
  }
}

TEST(IntegrationTest, EndToEndSpeedupOverPaperCpuBaselineInPaperRange) {
  // Table 2's headline: 2.5-5.4x end-to-end throughput speedup vs the
  // batch-2048 CPU baseline across both models and precisions.
  for (bool large : {false, true}) {
    const auto model = large ? LargeProductionModel() : SmallProductionModel();
    for (Precision p : {Precision::kFixed16, Precision::kFixed32}) {
      EngineOptions options;
      options.precision = p;
      options.materialize = false;
      auto engine = MicroRecEngine::Build(model, options);
      ASSERT_TRUE(engine.ok());
      const double cpu_throughput =
          PaperEndToEndThroughput(large, 2048).value();
      const double speedup = engine->Throughput() / cpu_throughput;
      EXPECT_GT(speedup, 1.5) << model.name << " " << PrecisionName(p);
      EXPECT_LT(speedup, 9.0) << model.name << " " << PrecisionName(p);
    }
  }
}

TEST(IntegrationTest, SingleItemLatencyMicrosecondsNotMilliseconds) {
  // The latency story: CPU needs milliseconds per inference, MicroRec tens
  // of microseconds -- 2-4 orders of magnitude below the tens-of-ms SLA.
  for (bool large : {false, true}) {
    const auto model = large ? LargeProductionModel() : SmallProductionModel();
    EngineOptions options;
    options.materialize = false;
    auto engine = MicroRecEngine::Build(model, options);
    ASSERT_TRUE(engine.ok());
    EXPECT_LT(engine->ItemLatency(), Microseconds(60));
    const Nanoseconds cpu_b1 = PaperEndToEndLatency(large, 1).value();
    EXPECT_GT(cpu_b1 / engine->ItemLatency(), 50.0);
  }
}

TEST(IntegrationTest, DlrmReplicatedLookupRoundsMatchTable5Structure) {
  // Paper 5.4.2: 8 tables x 4 lookups spread over 32 HBM channels need one
  // round; 12 tables x 4 lookups need two; latency doubles exactly.
  const auto spec = MemoryPlatformSpec::AlveoU280();
  RoundLatencyModel model(spec);
  auto accesses_for = [&](std::uint32_t tables, std::uint32_t vec_len) {
    std::vector<BankAccess> accesses;
    std::uint32_t channel = 0;
    for (std::uint32_t t = 0; t < tables; ++t) {
      for (std::uint32_t l = 0; l < 4; ++l) {
        accesses.push_back(BankAccess{channel % spec.hbm_channels,
                                      vec_len * 4ull, t});
        ++channel;
      }
    }
    return accesses;
  };
  for (std::uint32_t len : {4u, 8u, 16u, 32u, 64u}) {
    const Nanoseconds eight = model.BatchLatency(accesses_for(8, len));
    const Nanoseconds twelve = model.BatchLatency(accesses_for(12, len));
    EXPECT_EQ(model.DramAccessRounds(accesses_for(8, len)), 1u);
    EXPECT_EQ(model.DramAccessRounds(accesses_for(12, len)), 2u);
    EXPECT_DOUBLE_EQ(twelve, 2.0 * eight) << "len " << len;
    // Table 5 anchor check at len 4 / len 64.
    if (len == 4) {
      EXPECT_NEAR(eight, 334.5, 3.0);
    }
    if (len == 64) {
      EXPECT_NEAR(eight, 648.4, 3.0);
    }
  }
}

TEST(IntegrationTest, ServingSimulationUsesEngineTiming) {
  // Glue check: feed real engine timing into the serving simulator.
  EngineOptions options;
  options.materialize = false;
  auto engine = MicroRecEngine::Build(SmallProductionModel(), options);
  ASSERT_TRUE(engine.ok());
  const auto arrivals = PoissonArrivals(100'000.0, 5'000, 3);
  sched::PipelineBackendConfig pipeline;
  pipeline.item_latency_ns = engine->ItemLatency();
  pipeline.initiation_interval_ns = engine->timing().initiation_interval_ns;
  const ServingReport report =
      sched::ServeOnBackend(
          arrivals, std::make_unique<sched::PipelineBackend>(pipeline),
          Milliseconds(30))
          .serving;
  EXPECT_DOUBLE_EQ(report.sla_violation_rate, 0.0);
  EXPECT_LT(report.p99, Microseconds(100));
}

TEST(IntegrationTest, OnChipCachedTablesAreTheSmallest) {
  const auto model = SmallProductionModel();
  EngineOptions options;
  options.materialize = false;
  auto engine = MicroRecEngine::Build(model, options);
  ASSERT_TRUE(engine.ok());
  const auto& platform = options.platform;
  Bytes largest_onchip = 0;
  Bytes smallest_dram = ~0ull;
  for (const auto& p : engine->plan().placements) {
    if (platform.KindOfBank(p.bank) == MemoryKind::kOnChip) {
      largest_onchip = std::max(largest_onchip, p.table.TotalBytes());
    } else {
      smallest_dram = std::min(smallest_dram, p.table.TotalBytes());
    }
  }
  EXPECT_LE(largest_onchip, smallest_dram);
}

}  // namespace
}  // namespace microrec
