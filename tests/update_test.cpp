// Tests for the online embedding-update subsystem (src/update/): delta
// streams, write interference, and update-aware serving simulation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/microrec.hpp"
#include "placement/heuristic.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "serving/serving_sim.hpp"
#include "update/delta_stream.hpp"
#include "update/serving_update_sim.hpp"
#include "update/write_interference.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {
namespace {

RecModelSpec TinyModel(std::uint64_t seed = 3) {
  RecModelSpec model;
  model.name = "tiny-update";
  model.tables = {
      TableSpec{0, "t0", 64, 8, 4},
      TableSpec{1, "t1", 100, 4, 4},
      TableSpec{2, "t2", 4000, 16, 4},
  };
  model.mlp.input_dim = 28;
  model.mlp.hidden = {16};
  model.seed = seed;
  return model;
}

// ---------------------------------------------------------------- DeltaStream

TEST(DeltaStream, DeterministicGivenSeed) {
  const auto model = TinyModel();
  DeltaStreamConfig config;
  config.update_row_qps = 1e6;
  config.seed = 9;
  DeltaStream a(model, config), b(model, config);
  for (int i = 0; i < 10; ++i) {
    const UpdateBatch ba = a.NextBatch(), bb = b.NextBatch();
    ASSERT_EQ(ba.size(), bb.size());
    EXPECT_EQ(ba.time_ns, bb.time_ns);
    for (std::size_t d = 0; d < ba.size(); ++d) {
      EXPECT_EQ(ba.deltas[d].table_id, bb.deltas[d].table_id);
      EXPECT_EQ(ba.deltas[d].row, bb.deltas[d].row);
      EXPECT_EQ(ba.deltas[d].seq, bb.deltas[d].seq);
    }
  }
}

TEST(DeltaStream, TimestampsStrictlyIncreaseAtConfiguredRate) {
  DeltaStreamConfig config;
  config.update_row_qps = 1e6;  // 64-row batches -> mean gap 64 us
  DeltaStream stream(TinyModel(), config);
  Nanoseconds last = -1.0;
  double sum_gap = 0.0;
  std::uint64_t next_seq = 0;
  constexpr int kBatches = 2000;
  for (int i = 0; i < kBatches; ++i) {
    const auto batch = stream.NextBatch();
    ASSERT_GT(batch.time_ns, last);
    if (last >= 0.0) sum_gap += batch.time_ns - last;
    last = batch.time_ns;
    EXPECT_EQ(batch.size(), DeltaStream::kRowsPerBatch);
    for (const auto& d : batch.deltas) EXPECT_EQ(d.seq, next_seq++);
  }
  // Mean inter-batch gap should be near kRowsPerBatch / qps = 64000 ns.
  const double mean_gap = sum_gap / (kBatches - 1);
  EXPECT_NEAR(mean_gap, 64000.0, 64000.0 * 0.15);
}

TEST(DeltaStream, DeltasTargetValidRowsWithMatchingDims) {
  const auto model = TinyModel();
  DeltaStreamConfig config;
  DeltaStream stream(model, config);
  for (int i = 0; i < 50; ++i) {
    for (const auto& d : stream.NextBatch().deltas) {
      ASSERT_LT(d.table_id, model.tables.size());
      const auto& spec = model.tables[d.table_id];
      EXPECT_LT(d.row, spec.rows);
    }
  }
}

TEST(DeltaStream, SurvivesSourceSpecDestruction) {
  DeltaStreamConfig config;
  auto stream = [&] {
    const auto model = TinyModel();  // dies at end of lambda
    return DeltaStream(model, config);
  }();
  const auto batch = stream.NextBatch();  // must not read freed memory
  EXPECT_EQ(batch.size(), DeltaStream::kRowsPerBatch);
  EXPECT_EQ(stream.model().tables.size(), 3u);
}

// Folds one word into a running digest.
void Mix(std::uint64_t& digest, std::uint64_t word) {
  std::uint64_t state = digest ^ word;
  digest = SplitMix64(state);
}

// Digest of every batch timestamp and every delta's table, row and seq over
// the stream's next `batches` batches.
std::uint64_t StreamDigest(DeltaStream& stream, int batches) {
  std::uint64_t digest = 0;
  for (int i = 0; i < batches; ++i) {
    const UpdateBatch batch = stream.NextBatch();
    Mix(digest, std::bit_cast<std::uint64_t>(batch.time_ns));
    for (const EmbeddingDelta& d : batch.deltas) {
      Mix(digest, d.table_id);
      Mix(digest, d.row);
      Mix(digest, d.seq);
    }
  }
  return digest;
}

// Pins the stream's RNG consumption: the recorded digest fixes every row,
// seq and timestamp, so the value draws NextBatch discards (one Gaussian per
// element of each delta) must not change.
TEST(DeltaStream, StreamMatchesParentRecording) {
  DeltaStreamConfig config;
  config.update_row_qps = 1e6;
  config.seed = 7;
  DeltaStream stream(SmallProductionModel(), config);
  EXPECT_EQ(StreamDigest(stream, 256), 0xe3ba68dde6e7174eull);
}

// The same pin over odd dims. SmallProductionModel's dims are all even, so
// an update there never leaves a Gaussian spare pending for the next one;
// here a dim-1, 3, 5 or 7 update leaves one whenever it starts without.
TEST(DeltaStream, OddDimStreamMatchesRecordedDigest) {
  RecModelSpec model;
  model.name = "odd-dims";
  model.tables = {
      TableSpec{0, "t0", 40, 1, 4},
      TableSpec{1, "t1", 3'000, 3, 4},
      TableSpec{2, "t2", 70'000, 5, 4},
      TableSpec{3, "t3", 1'200'000, 7, 4},
  };
  model.mlp.input_dim = 16;
  model.mlp.hidden = {8};
  DeltaStreamConfig config;
  config.update_row_qps = 1e6;
  config.seed = 13;
  DeltaStream stream(model, config);
  EXPECT_EQ(StreamDigest(stream, 256), 0x8464710707881d27ull);
}

// ------------------------------------------------------- UpdateWriteInjector

TEST(WriteInjector, RoutesCoverEveryTableAndWritesOccupyBanks) {
  const auto model = TinyModel();
  PlacementOptions options;
  const auto platform = MemoryPlatformSpec::AlveoU280();
  const auto plan = HeuristicSearch(model.tables, platform, options).value();

  UpdateWriteInjector injector(plan, platform);
  for (const auto& t : model.tables) {
    ASSERT_NE(injector.route(t.id), nullptr) << "table " << t.id;
  }

  DeltaStream stream(model, DeltaStreamConfig{});
  const auto batch = stream.NextBatch();
  Bytes expected_bytes = 0;
  for (const auto& d : batch.deltas) {
    expected_bytes += injector.route(d.table_id)->bytes_per_row_update;
  }
  const Nanoseconds done = injector.Inject(batch, 1000.0);
  EXPECT_GT(done, 1000.0);
  EXPECT_GT(expected_bytes, 0u);
  EXPECT_EQ(injector.bytes_written(), expected_bytes);

  // A lookup issued while writes drain waits; issued after, it does not.
  const auto lookup = plan.ToBankAccesses(1);
  EXPECT_GT(injector.LookupDelay(lookup, 1000.0), 0.0);
  EXPECT_EQ(injector.LookupDelay(lookup, done + 1.0), 0.0);
}

// A delta to one member of a Cartesian product rewrites every product entry
// that holds the member's row: one per combination of the other members'
// rows, each the width of the whole concatenated vector.
TEST(WriteInjector, ProductMembersWriteEveryEntryHoldingTheRow) {
  const auto model = SmallProductionModel();
  const auto platform = MemoryPlatformSpec::AlveoU280();
  PlacementOptions options;
  options.max_onchip_tables = model.max_onchip_tables;
  const auto plan = HeuristicSearch(model.tables, platform, options).value();
  UpdateWriteInjector injector(plan, platform);

  std::size_t products = 0, plain = 0;
  for (const TablePlacement& placement : plan.placements) {
    const CombinedTable& combined = placement.table;
    for (const TableSpec& member : combined.members()) {
      const auto* route = injector.route(member.id);
      ASSERT_NE(route, nullptr) << "table " << member.id;
      EXPECT_EQ(route->bank, placement.bank);
      if (!combined.is_product()) {
        ++plain;
        EXPECT_EQ(route->amplification_rows, 1u);
        EXPECT_EQ(route->bytes_per_row_update, member.VectorBytes());
        continue;
      }
      ++products;
      std::uint64_t others = 1;
      for (const TableSpec& other : combined.members()) {
        if (other.id != member.id) others *= other.rows;
      }
      EXPECT_EQ(route->amplification_rows, combined.rows() / member.rows);
      EXPECT_EQ(route->amplification_rows, others);
      EXPECT_EQ(route->bytes_per_row_update,
                route->amplification_rows * combined.VectorBytes());
    }
  }
  EXPECT_GT(products, 0u);
  EXPECT_GT(plain, 0u);
}

// -------------------------------------------------- Update-aware serving sim

struct SimContext {
  RecModelSpec model;
  EngineOptions options;
  PlacementPlan plan;
  Nanoseconds item_latency;
  Nanoseconds ii;
};

SimContext BuildContext() {
  SimContext ctx;
  ctx.model = SmallProductionModel();
  ctx.options.materialize = false;
  const auto engine = MicroRecEngine::Build(ctx.model, ctx.options).value();
  ctx.plan = engine.plan();
  ctx.item_latency = engine.timing().item_latency_ns;
  ctx.ii = engine.timing().initiation_interval_ns;
  return ctx;
}

TEST(UpdateServing, ZeroUpdateRateMatchesPipelinedServerBitForBit) {
  const auto ctx = BuildContext();
  const auto arrivals = PoissonArrivals(150'000.0, 5000, 4);

  UpdateServingConfig config;
  config.item_latency_ns = ctx.item_latency;
  config.initiation_interval_ns = ctx.ii;
  config.deltas.update_row_qps = 0.0;
  const auto report = SimulateServingWithUpdates(
      ctx.model, ctx.plan, ctx.options.platform, arrivals, config);
  // The same pipeline served as a one-replica backend through the event
  // loop.
  sched::PipelineBackendConfig pipeline;
  pipeline.item_latency_ns = ctx.item_latency;
  pipeline.initiation_interval_ns = ctx.ii;
  const ServingReport baseline =
      sched::ServeOnBackend(
          arrivals, std::make_unique<sched::PipelineBackend>(pipeline),
          config.sla_ns)
          .serving;

  EXPECT_EQ(report.serving.queries, baseline.queries);
  EXPECT_EQ(report.serving.offered_qps, baseline.offered_qps);
  EXPECT_EQ(report.serving.achieved_qps, baseline.achieved_qps);
  EXPECT_EQ(report.serving.p50, baseline.p50);
  EXPECT_EQ(report.serving.p95, baseline.p95);
  EXPECT_EQ(report.serving.p99, baseline.p99);
  EXPECT_EQ(report.serving.max, baseline.max);
  EXPECT_EQ(report.serving.mean, baseline.mean);
  EXPECT_EQ(report.serving.sla_violation_rate, baseline.sla_violation_rate);
  EXPECT_EQ(report.update_batches, 0u);
  EXPECT_EQ(report.publishes, 0u);
  EXPECT_EQ(report.staleness_p99, 0.0);
  EXPECT_EQ(report.interference_max, 0.0);
}

TEST(UpdateServing, P99DegradesMonotonicallyWithUpdateRate) {
  const auto ctx = BuildContext();
  const auto arrivals = PoissonArrivals(150'000.0, 8000, 4);

  double last_p99 = -1.0;
  for (double rate : {0.0, 1e5, 1e6, 5e6}) {
    UpdateServingConfig config;
    config.item_latency_ns = ctx.item_latency;
    config.initiation_interval_ns = ctx.ii;
    config.deltas.update_row_qps = rate;
    config.deltas.seed = 17;
    config.policy = WritePolicy::kFairInterleave;
    const auto report = SimulateServingWithUpdates(
        ctx.model, ctx.plan, ctx.options.platform, arrivals, config);
    EXPECT_GE(report.serving.p99, last_p99 - 1.0)
        << "p99 regressed at update rate " << rate;
    last_p99 = report.serving.p99;
    if (rate > 0.0) {
      EXPECT_GT(report.update_batches, 0u);
      EXPECT_GT(report.publishes, 0u);
      EXPECT_GT(report.update_bytes_written, 0u);
      EXPECT_FALSE(report.ToString().empty());
      // Fair interleave keeps the snapshot fresh: reads queue behind the
      // writes whose completion publishes them, so staleness stays ~0
      // while the tail pays for it (the policy tradeoff test covers the
      // staleness side via updates-yield).
      EXPECT_GT(report.interference_mean, 0.0);
    }
  }
}

TEST(UpdateServing, YieldPolicyTradesStalenessForTail) {
  const auto ctx = BuildContext();
  const auto arrivals = PoissonArrivals(150'000.0, 8000, 4);

  UpdateServingConfig config;
  config.item_latency_ns = ctx.item_latency;
  config.initiation_interval_ns = ctx.ii;
  config.deltas.update_row_qps = 5e6;
  config.deltas.seed = 17;

  config.policy = WritePolicy::kFairInterleave;
  const auto fair = SimulateServingWithUpdates(
      ctx.model, ctx.plan, ctx.options.platform, arrivals, config);
  config.policy = WritePolicy::kUpdatesYield;
  const auto yield = SimulateServingWithUpdates(
      ctx.model, ctx.plan, ctx.options.platform, arrivals, config);

  // Yielding parks writes until idle gaps in the arrival stream, so queries
  // keep a better tail while the serving snapshot ages under load.
  EXPECT_LE(yield.serving.p99, fair.serving.p99 + 1.0);
  EXPECT_GT(yield.staleness_p99, fair.staleness_p99);
  EXPECT_LE(yield.interference_mean, fair.interference_mean + 1e-9);
}

// Digest of every UpdateServingReport field.
std::uint64_t ReportDigest(const UpdateServingReport& r) {
  std::uint64_t digest = 0;
  const ServingReport& s = r.serving;
  Mix(digest, s.queries);
  for (double v : {s.offered_qps, s.achieved_qps, s.p50, s.p95, s.p99, s.max,
                   s.mean, s.sla_violation_rate, r.update_row_qps,
                   r.staleness_p50, r.staleness_p95, r.staleness_p99,
                   r.staleness_max, r.staleness_mean, r.interference_mean,
                   r.interference_max, r.migration_cost_ns}) {
    Mix(digest, std::bit_cast<std::uint64_t>(v));
  }
  for (std::uint64_t v : {r.update_batches, r.update_rows, r.publishes,
                          r.update_bytes_written, r.delayed_queries,
                          r.migrations, r.migrated_bytes}) {
    Mix(digest, v);
  }
  return digest;
}

// Pins the whole report at one write-heavy point per policy: the recorded
// digests fix every latency, staleness and interference figure and every
// count, so a change to the stream, the injector or the publish order shows
// here and not only in a property check.
TEST(UpdateServing, ReportMatchesParentRecording) {
  const auto ctx = BuildContext();
  const auto arrivals = PoissonArrivals(150'000.0, 4000, 4);
  const std::pair<WritePolicy, std::uint64_t> cases[] = {
      {WritePolicy::kFairInterleave, 0x236890c10821e3ceull},
      {WritePolicy::kUpdatesYield, 0x314f7f060b6f0f6bull},
  };
  for (const auto& [policy, recorded] : cases) {
    UpdateServingConfig config;
    config.item_latency_ns = ctx.item_latency;
    config.initiation_interval_ns = ctx.ii;
    config.deltas.update_row_qps = 5e6;
    config.deltas.seed = 17;
    config.policy = policy;
    const auto report = SimulateServingWithUpdates(
        ctx.model, ctx.plan, ctx.options.platform, arrivals, config);
    EXPECT_EQ(ReportDigest(report), recorded) << WritePolicyName(policy);
    EXPECT_GT(report.update_bytes_written, 0u) << WritePolicyName(policy);
  }
}

}  // namespace
}  // namespace microrec
