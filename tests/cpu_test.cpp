// Tests for the CPU baseline engine, the framework-overhead model, and the
// published baseline anchor numbers.
#include <gtest/gtest.h>

#include <algorithm>

#include "cpu/cpu_engine.hpp"
#include "cpu/overhead_model.hpp"
#include "cpu/paper_baseline.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

namespace microrec {
namespace {

RecModelSpec TinyModel() {
  // A small synthetic model so tests materialize quickly.
  RecModelSpec model;
  model.name = "tiny-test";
  model.seed = 77;
  for (std::uint32_t i = 0; i < 6; ++i) {
    TableSpec spec;
    spec.id = i;
    spec.name = "t" + std::to_string(i);
    spec.rows = 50 + 10 * i;
    spec.dim = (i % 2 == 0) ? 4 : 8;
    model.tables.push_back(spec);
  }
  model.mlp.input_dim = model.FeatureLength();
  model.mlp.hidden = {32, 16};
  return model;
}

// ------------------------------------------------------ Overhead model

TEST(OverheadModelTest, ScalesWithTableCount) {
  FrameworkOverheadParams params;
  EXPECT_GT(params.EmbeddingOverhead(98), params.EmbeddingOverhead(47));
  EXPECT_DOUBLE_EQ(params.EmbeddingOverhead(0), 0.0);
}

TEST(OverheadModelTest, CalibrationNearPaperBatch1) {
  // Paper figure 3 / Table 4: the small model's embedding layer costs
  // ~2.6 ms at batch 1, dominated by operator dispatch over 47 tables.
  FrameworkOverheadParams params;
  EXPECT_NEAR(ToMillis(params.EmbeddingOverhead(47)), 2.4, 0.8);
}

TEST(OverheadModelTest, DnnOverheadSmallerThanEmbedding) {
  FrameworkOverheadParams params;
  EXPECT_LT(params.DnnOverhead(3), params.EmbeddingOverhead(47));
}

// ------------------------------------------------------ CpuEngine

TEST(CpuEngineTest, InferOneMatchesManualReference) {
  const auto model = TinyModel();
  CpuEngine engine(model, /*max_physical_rows=*/1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 3);
  const SparseQuery query = gen.Next();

  // Manual reference: gather + float MLP.
  std::vector<float> features(model.FeatureLength());
  GatherConcat(engine.tables(), query.indices, features);
  const float expected = engine.mlp().Forward(features);
  EXPECT_FLOAT_EQ(engine.InferOne(query), expected);
}

TEST(CpuEngineTest, BatchMatchesSingle) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 4);
  const auto queries = gen.NextBatch(9);
  const auto batched = engine.InferBatch(queries);
  ASSERT_EQ(batched.size(), 9u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(batched[i], engine.InferOne(queries[i]), 1e-5f);
  }
}

TEST(CpuEngineTest, TimingFieldsPopulated) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 5);
  const auto queries = gen.NextBatch(16);
  CpuBatchTiming timing;
  engine.InferBatch(queries, &timing);
  EXPECT_GT(timing.embedding_ns, 0.0);
  EXPECT_GT(timing.dnn_ns, 0.0);
  EXPECT_GT(timing.overhead_ns, 0.0);
  EXPECT_DOUBLE_EQ(timing.total_ns(),
                   timing.embedding_ns + timing.dnn_ns + timing.overhead_ns);
}

TEST(CpuEngineTest, EmbeddingLayerProducesFeatureMatrix) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 6);
  const auto queries = gen.NextBatch(5);
  MatrixF features;
  engine.EmbeddingLayer(queries, features);
  EXPECT_EQ(features.rows(), 5u);
  EXPECT_EQ(features.cols(), model.FeatureLength());
  // Row 0 equals the single-query gather.
  std::vector<float> expected(model.FeatureLength());
  GatherConcat(engine.tables(), queries[0].indices, expected);
  for (std::size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(features(0, c), expected[c]);
  }
}

TEST(CpuEngineTest, MeasureEmbeddingLayerReturnsOverhead) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 7);
  const auto queries = gen.NextBatch(8);
  const auto timing = engine.MeasureEmbeddingLayer(queries);
  EXPECT_GT(timing.embedding_ns, 0.0);
  FrameworkOverheadParams params;
  EXPECT_DOUBLE_EQ(timing.overhead_ns, params.EmbeddingOverhead(6));
}

TEST(CpuEngineTest, MultiLookupPoolingSums) {
  auto model = DlrmRmc2Model(4, 8);
  model.tables[0].rows = 100;  // shrink for materialization
  model.tables[1].rows = 100;
  model.tables[2].rows = 100;
  model.tables[3].rows = 100;
  CpuEngine engine(model, 1 << 20);
  SparseQuery query;
  query.indices.assign(16, 0);
  query.indices[0] = 1;
  query.indices[1] = 2;
  query.indices[2] = 3;
  query.indices[3] = 4;
  MatrixF features;
  engine.EmbeddingLayer(std::vector<SparseQuery>{query}, features);
  // Table 0's slice is the sum of rows 1..4.
  const auto& t0 = engine.tables()[0];
  for (std::uint32_t d = 0; d < 8; ++d) {
    const float expected = t0.Lookup(1)[d] + t0.Lookup(2)[d] +
                           t0.Lookup(3)[d] + t0.Lookup(4)[d];
    EXPECT_NEAR(features(0, d), expected, 1e-6f);
  }
}

TEST(CpuEngineTest, ScratchInferBatchMatchesWrapper) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 9);
  const auto queries = gen.NextBatch(13);
  const auto wrapper = engine.InferBatch(queries);
  InferenceScratch scratch;
  const auto probs = engine.InferBatch(queries, scratch);
  ASSERT_EQ(probs.size(), wrapper.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(probs[i], wrapper[i]) << "row " << i;
  }
}

TEST(CpuEngineTest, ReferencePathMatchesOptimized) {
  // The frozen pre-optimization path (scalar gather, unfused GEMM,
  // per-layer reallocation) must agree with the vectorized engine. The
  // gather is bit-exact by construction; FMA contraction in the GEMM
  // bounds the MLP difference to a few ULP, comfortably inside 1e-5.
  const auto model = PooledCpuGateModel();
  CpuEngine engine(model, /*max_physical_rows=*/1 << 12, {}, /*threads=*/1);
  QueryGenerator gen(model, IndexDistribution::kUniform, 10);
  const auto queries = gen.NextBatch(33);
  const auto reference = engine.InferBatchReference(queries);
  InferenceScratch scratch;
  const auto optimized = engine.InferBatch(queries, scratch);
  ASSERT_EQ(reference.size(), optimized.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(optimized[i], reference[i], 1e-5f) << "row " << i;
  }
}

TEST(CpuEngineTest, EmptyBatchIsWellDefined) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  const std::vector<SparseQuery> none;
  InferenceScratch scratch;
  EXPECT_TRUE(engine.InferBatch(none, scratch).empty());
  EXPECT_TRUE(engine.InferBatch(none).empty());
  EXPECT_TRUE(engine.InferBatchReference(none).empty());
}

TEST(CpuEngineTest, InferOneScratchMatchesWrapper) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 11);
  InferenceScratch scratch;
  for (int i = 0; i < 8; ++i) {
    const SparseQuery query = gen.Next();
    EXPECT_EQ(engine.InferOne(query, scratch), engine.InferOne(query));
  }
}

TEST(CpuEngineTest, ReserveScratchDoesNotChangeResults) {
  const auto model = TinyModel();
  CpuEngine engine(model, 1 << 20);
  QueryGenerator gen(model, IndexDistribution::kUniform, 12);
  const auto queries = gen.NextBatch(21);
  InferenceScratch cold;
  InferenceScratch reserved;
  engine.ReserveScratch(reserved, 64);  // over-reserve past the batch size
  const auto a = engine.InferBatch(queries, cold);
  const auto b = engine.InferBatch(queries, reserved);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(CpuEngineTest, MultithreadedMatchesSingleThreaded) {
  const auto model = TinyModel();
  CpuEngine one(model, 1 << 20, {}, /*threads=*/1);
  CpuEngine four(model, 1 << 20, {}, /*threads=*/4);
  QueryGenerator gen(model, IndexDistribution::kUniform, 8);
  const auto queries = gen.NextBatch(32);
  const auto a = one.InferBatch(queries);
  const auto b = four.InferBatch(queries);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  // The gate model, sharded unevenly (batch 5 on 4 workers is 2/2/1; 7 on
  // 3 is 3/3/1; batch 1 is a lone shard) and through one reused scratch per
  // engine, so shards also shrink and regrow between batches.
  const auto gate = PooledCpuGateModel();
  CpuEngine gate_one(gate, /*max_physical_rows=*/1 << 12, {}, /*threads=*/1);
  QueryGenerator gate_gen(gate, IndexDistribution::kUniform, 18);
  std::vector<std::vector<SparseQuery>> batches;
  std::vector<std::vector<float>> expected;
  for (const std::size_t batch : {1u, 5u, 7u, 33u, 256u}) {
    batches.push_back(gate_gen.NextBatch(batch));
    expected.push_back(gate_one.InferBatch(batches.back()));
  }
  for (const std::size_t threads : {2u, 3u, 4u}) {
    CpuEngine engine(gate, /*max_physical_rows=*/1 << 12, {}, threads);
    InferenceScratch scratch;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto probs = engine.InferBatch(batches[b], scratch);
      ASSERT_EQ(probs.size(), expected[b].size());
      for (std::size_t i = 0; i < probs.size(); ++i) {
        EXPECT_EQ(probs[i], expected[b][i])
            << "threads " << threads << " batch " << batches[b].size()
            << " row " << i;
      }
    }
  }
}

TEST(CpuEngineTest, ShardedTimingReportsTheSlowestShard) {
  const auto model = PooledCpuGateModel();
  CpuEngine engine(model, /*max_physical_rows=*/1 << 12, {}, /*threads=*/4);
  QueryGenerator gen(model, IndexDistribution::kUniform, 19);
  const auto queries = gen.NextBatch(64);
  InferenceScratch scratch;
  CpuBatchTiming timing;
  engine.InferBatch(queries, scratch, &timing);
  ASSERT_EQ(scratch.arenas.size(), 4u);
  Nanoseconds slowest = 0.0;
  for (const InferenceArena& arena : scratch.arenas) {
    EXPECT_GT(arena.gather_ns, 0.0);
    EXPECT_GT(arena.mlp_ns, 0.0);
    slowest = std::max(slowest, arena.gather_ns + arena.mlp_ns);
  }
  EXPECT_DOUBLE_EQ(timing.embedding_ns + timing.dnn_ns, slowest);
}

// ------------------------------------------------------ Paper anchors

TEST(PaperBaselineTest, BatchGrid) {
  EXPECT_EQ(PaperBatchSizes(),
            (std::vector<std::uint32_t>{1, 64, 256, 512, 1024, 2048}));
}

TEST(PaperBaselineTest, KnownAnchorsExact) {
  EXPECT_DOUBLE_EQ(PaperEndToEndLatency(false, 2048).value(),
                   Milliseconds(28.18));
  EXPECT_DOUBLE_EQ(PaperEndToEndLatency(true, 1).value(), Milliseconds(7.48));
  EXPECT_DOUBLE_EQ(PaperEmbeddingLatency(false, 1).value(), Milliseconds(2.59));
  EXPECT_DOUBLE_EQ(PaperEmbeddingLatency(true, 2048).value(),
                   Milliseconds(31.25));
  EXPECT_DOUBLE_EQ(PaperEndToEndThroughput(false, 2048).value(), 7.27e4);
}

TEST(PaperBaselineTest, UnknownBatchIsNotFound) {
  EXPECT_EQ(PaperEndToEndLatency(false, 100).status().code(),
            StatusCode::kNotFound);
}

TEST(PaperBaselineTest, LatencyMonotoneInBatch) {
  for (bool large : {false, true}) {
    Nanoseconds prev = 0.0;
    for (std::uint32_t b : PaperBatchSizes()) {
      const Nanoseconds cur = PaperEndToEndLatency(large, b).value();
      EXPECT_GT(cur, prev);
      prev = cur;
    }
  }
}

TEST(PaperBaselineTest, FacebookBaselineConstantAcrossGrid) {
  const Nanoseconds anchor = FacebookEmbeddingBaseline(8, 4).value();
  for (std::uint32_t tables : {8u, 12u}) {
    for (std::uint32_t len : {4u, 16u, 64u}) {
      EXPECT_DOUBLE_EQ(FacebookEmbeddingBaseline(tables, len).value(), anchor);
    }
  }
  EXPECT_NEAR(ToMicros(anchor), 24.2, 0.5);
}

TEST(PaperBaselineTest, FacebookBaselineRangeChecked) {
  EXPECT_FALSE(FacebookEmbeddingBaseline(7, 4).ok());
  EXPECT_FALSE(FacebookEmbeddingBaseline(13, 4).ok());
  EXPECT_FALSE(FacebookEmbeddingBaseline(8, 2).ok());
  EXPECT_FALSE(FacebookEmbeddingBaseline(8, 128).ok());
}

}  // namespace
}  // namespace microrec
