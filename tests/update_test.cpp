// Tests for the online embedding-update subsystem (src/update/): delta
// streams, the versioned double-buffered store, write interference,
// incremental re-placement, and update-aware serving simulation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/microrec.hpp"
#include "embedding/cartesian.hpp"
#include "embedding/embedding_table.hpp"
#include "placement/heuristic.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "serving/serving_sim.hpp"
#include "update/delta_stream.hpp"
#include "update/replan.hpp"
#include "update/serving_update_sim.hpp"
#include "update/versioned_store.hpp"
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
  config.rows_per_batch = 16;
  config.seed = 9;
  DeltaStream a(model, config), b(model, config);
  for (int i = 0; i < 10; ++i) {
    const UpdateBatch ba = a.NextBatch(), bb = b.NextBatch();
    ASSERT_EQ(ba.size(), bb.size());
    EXPECT_EQ(ba.seq_begin, bb.seq_begin);
    EXPECT_EQ(ba.time_ns, bb.time_ns);
    for (std::size_t d = 0; d < ba.size(); ++d) {
      EXPECT_EQ(ba.deltas[d].table_id, bb.deltas[d].table_id);
      EXPECT_EQ(ba.deltas[d].row, bb.deltas[d].row);
      EXPECT_EQ(ba.deltas[d].values, bb.deltas[d].values);
    }
  }
}

TEST(DeltaStream, TimestampsStrictlyIncreaseAtConfiguredRate) {
  DeltaStreamConfig config;
  config.update_row_qps = 1e6;  // 16-row batches -> mean gap 16 us
  config.rows_per_batch = 16;
  DeltaStream stream(TinyModel(), config);
  Nanoseconds last = -1.0;
  double sum_gap = 0.0;
  constexpr int kBatches = 2000;
  for (int i = 0; i < kBatches; ++i) {
    const auto batch = stream.NextBatch();
    ASSERT_GT(batch.time_ns, last);
    if (last >= 0.0) sum_gap += batch.time_ns - last;
    last = batch.time_ns;
    EXPECT_EQ(batch.size(), config.rows_per_batch);
    EXPECT_EQ(batch.seq_end - batch.seq_begin, config.rows_per_batch);
  }
  // Mean inter-batch gap should be near rows_per_batch / qps = 16000 ns.
  const double mean_gap = sum_gap / (kBatches - 1);
  EXPECT_NEAR(mean_gap, 16000.0, 16000.0 * 0.15);
}

TEST(DeltaStream, DeltasTargetValidRowsWithMatchingDims) {
  const auto model = TinyModel();
  DeltaStreamConfig config;
  config.rows_per_batch = 32;
  DeltaStream stream(model, config);
  for (int i = 0; i < 50; ++i) {
    for (const auto& d : stream.NextBatch().deltas) {
      ASSERT_LT(d.table_id, model.tables.size());
      const auto& spec = model.tables[d.table_id];
      EXPECT_LT(d.row, spec.rows);
      EXPECT_EQ(d.values.size(), spec.dim);
      EXPECT_FALSE(d.grows_table);
    }
  }
}

TEST(DeltaStream, GrowthFractionAppendsRows) {
  const auto model = TinyModel();
  DeltaStreamConfig config;
  config.growth_fraction = 0.25;
  config.rows_per_batch = 64;
  DeltaStream stream(model, config);
  std::vector<std::uint64_t> rows;
  for (const auto& t : model.tables) rows.push_back(t.rows);
  std::uint64_t growth_seen = 0;
  for (int i = 0; i < 20; ++i) {
    for (const auto& d : stream.NextBatch().deltas) {
      if (d.grows_table) {
        EXPECT_EQ(d.row, rows[d.table_id]);  // appended at the old end
        EXPECT_EQ(d.kind, DeltaKind::kOverwrite);
        ++rows[d.table_id];
        ++growth_seen;
      }
    }
  }
  EXPECT_GT(growth_seen, 0u);
  EXPECT_EQ(stream.grown_rows(), growth_seen);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    EXPECT_EQ(stream.rows(t), rows[t]);
  }
}

TEST(DeltaStream, SurvivesSourceSpecDestruction) {
  DeltaStreamConfig config;
  config.rows_per_batch = 8;
  auto stream = [&] {
    const auto model = TinyModel();  // dies at end of lambda
    return DeltaStream(model, config);
  }();
  const auto batch = stream.NextBatch();  // must not read freed memory
  EXPECT_EQ(batch.size(), 8u);
  EXPECT_EQ(stream.model().tables.size(), 3u);
}

// ------------------------------------------------- VersionedEmbeddingStore

TEST(VersionedStore, FreshStoreMatchesMaterializedTable) {
  const TableSpec spec{0, "t", 200, 8, 4};
  const std::uint64_t seed = 77;
  VersionedEmbeddingStore store(spec, seed);
  const auto table = EmbeddingTable::Materialize(spec, seed);
  for (std::uint64_t row : {0ull, 1ull, 99ull, 199ull}) {
    const auto got = store.Lookup(row);
    const auto want = table.Lookup(row);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) EXPECT_EQ(got[c], want[c]);
  }
  EXPECT_EQ(store.version(), 0u);
  EXPECT_EQ(store.StalenessNs(), 0.0);
}

TEST(VersionedStore, ApplyIsInvisibleUntilPublish) {
  const TableSpec spec{0, "t", 50, 4, 4};
  VersionedEmbeddingStore store(spec, 1);
  const float before = store.Lookup(7)[0];

  UpdateBatch batch;
  EmbeddingDelta d;
  d.table_id = 0;
  d.row = 7;
  d.kind = DeltaKind::kOverwrite;
  d.time_ns = 100.0;
  d.seq = 0;
  d.values = {1.0f, 2.0f, 3.0f, 4.0f};
  batch.deltas = {d};
  batch.seq_end = 1;
  const auto report = store.Apply(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().applied, 1u);

  // Published snapshot untouched; staleness now measurable.
  EXPECT_EQ(store.Lookup(7)[0], before);
  EXPECT_EQ(store.pending_deltas(), 1u);
  EXPECT_EQ(store.StalenessNs(), 100.0);

  EXPECT_EQ(store.Publish(), 1u);
  EXPECT_EQ(store.Lookup(7)[0], 1.0f);
  EXPECT_EQ(store.Lookup(7)[3], 4.0f);
  EXPECT_EQ(store.pending_deltas(), 0u);
  EXPECT_EQ(store.StalenessNs(), 0.0);
  ASSERT_EQ(store.last_published_rows().size(), 1u);
  EXPECT_EQ(store.last_published_rows()[0], 7u);
}

TEST(VersionedStore, RejectsMismatchedDeltas) {
  const TableSpec spec{3, "t", 50, 4, 4};
  VersionedEmbeddingStore store(spec, 1);
  UpdateBatch batch;
  EmbeddingDelta wrong_table;
  wrong_table.table_id = 9;
  wrong_table.values = {0, 0, 0, 0};
  EmbeddingDelta wrong_dim;
  wrong_dim.table_id = 3;
  wrong_dim.values = {0, 0};
  EmbeddingDelta bad_row;
  bad_row.table_id = 3;
  bad_row.row = 50;  // == rows but not a growth delta
  bad_row.values = {0, 0, 0, 0};
  batch.deltas = {wrong_table, wrong_dim, bad_row};
  const auto report = store.Apply(batch);
  EXPECT_FALSE(report.ok());  // every delta rejected -> InvalidArgument

  // One good delta among bad ones -> ok with rejected count.
  EmbeddingDelta good;
  good.table_id = 3;
  good.row = 0;
  good.values = {1, 1, 1, 1};
  batch.deltas.push_back(good);
  const auto mixed = store.Apply(batch);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value().applied, 1u);
  EXPECT_EQ(mixed.value().rejected, 3u);
}

TEST(VersionedStore, GrowthAppendsRowAndPublishGrowsSpec) {
  const TableSpec spec{0, "t", 10, 4, 4};
  VersionedEmbeddingStore store(spec, 5);
  UpdateBatch batch;
  EmbeddingDelta d;
  d.table_id = 0;
  d.row = 10;
  d.kind = DeltaKind::kOverwrite;
  d.grows_table = true;
  d.values = {9.0f, 9.0f, 9.0f, 9.0f};
  batch.deltas = {d};
  const auto report = store.Apply(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().grown_rows, 1u);
  EXPECT_EQ(store.spec().rows, 10u);  // published spec not yet grown
  store.Publish();
  EXPECT_EQ(store.spec().rows, 11u);
  EXPECT_EQ(store.Lookup(10)[0], 9.0f);
}

// Property test: after N random batches with random publish cadence, the
// published contents equal an independent from-scratch replay of every
// delta in sequence order over the reference materialization.
TEST(VersionedStore, ReplayConsistencyProperty) {
  const TableSpec spec{0, "t", 128, 8, 4};
  const std::uint64_t seed = 21;
  RecModelSpec model;
  model.name = "one-table";
  model.tables = {spec};
  model.mlp.input_dim = 8;
  model.mlp.hidden = {4};

  DeltaStreamConfig config;
  config.rows_per_batch = 16;
  config.theta = 0.8;
  config.growth_fraction = 0.05;
  config.kind = DeltaKind::kAdd;
  config.seed = 13;
  DeltaStream stream(model, config);

  VersionedEmbeddingStore store(spec, seed);
  std::vector<EmbeddingDelta> all;
  Rng cadence(99);
  for (int i = 0; i < 40; ++i) {
    const auto batch = stream.NextBatch();
    all.insert(all.end(), batch.deltas.begin(), batch.deltas.end());
    ASSERT_TRUE(store.Apply(batch).ok());
    if (cadence.NextDouble() < 0.4) store.Publish();
  }
  store.Publish();

  // From-scratch replay over a plain vector in the same float op order.
  std::uint64_t rows = spec.rows;
  std::vector<float> replay(spec.rows * spec.dim);
  for (std::uint64_t r = 0; r < spec.rows; ++r) {
    for (std::uint32_t c = 0; c < spec.dim; ++c) {
      replay[r * spec.dim + c] = EmbeddingTable::ReferenceValue(seed, r, c);
    }
  }
  for (const auto& d : all) {
    if (d.grows_table) {
      ASSERT_EQ(d.row, rows);
      for (std::uint32_t c = 0; c < spec.dim; ++c) {
        replay.push_back(EmbeddingTable::ReferenceValue(seed, rows, c));
      }
      ++rows;
    }
    for (std::uint32_t c = 0; c < spec.dim; ++c) {
      float& cell = replay[d.row * spec.dim + c];
      if (d.kind == DeltaKind::kAdd) {
        cell += d.values[c];
      } else {
        cell = d.values[c];
      }
    }
  }

  ASSERT_EQ(store.spec().rows, rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    const auto got = store.Lookup(r);
    for (std::uint32_t c = 0; c < spec.dim; ++c) {
      ASSERT_EQ(got[c], replay[r * spec.dim + c])
          << "row " << r << " col " << c;
    }
  }
}

// Readers pin a snapshot: a row read during concurrent apply/publish cycles
// must always be one complete published version, never a torn mix. The
// writer publishes whole-row overwrites where all elements carry the same
// value, so any mixed-value row would expose a tear.
TEST(VersionedStore, ConcurrentReadersNeverObserveTornRows) {
  const TableSpec spec{0, "t", 32, 16, 4};
  VersionedEmbeddingStore store(spec, 2);

  // Seed a uniform baseline so version 0 also satisfies the invariant.
  {
    UpdateBatch init;
    for (std::uint64_t r = 0; r < spec.rows; ++r) {
      EmbeddingDelta d;
      d.table_id = 0;
      d.row = r;
      d.kind = DeltaKind::kOverwrite;
      d.values.assign(spec.dim, 0.0f);
      init.deltas.push_back(d);
    }
    ASSERT_TRUE(store.Apply(init).ok());
    store.Publish();
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      std::vector<float> row(spec.dim);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t r = rng.NextBounded(spec.rows);
        store.ReadRow(r, row);
        for (std::uint32_t c = 1; c < spec.dim; ++c) {
          if (row[c] != row[0]) torn.store(true);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // At least 200 publish epochs, then keep going (yielding so the reader
  // threads actually get scheduled on small machines) until the readers
  // have observed a healthy number of snapshots.
  Rng rng(7);
  std::uint64_t epochs = 0;
  for (int epoch = 1; epoch <= 200 ||
                      (reads.load() < 2000 && epoch < 200'000);
       ++epoch) {
    UpdateBatch batch;
    for (int i = 0; i < 8; ++i) {
      EmbeddingDelta d;
      d.table_id = 0;
      d.row = rng.NextBounded(spec.rows);
      d.kind = DeltaKind::kOverwrite;
      d.values.assign(spec.dim, static_cast<float>(epoch % 1024));
      d.seq = store.applied_seq() + i;
      batch.deltas.push_back(d);
    }
    ASSERT_TRUE(store.Apply(batch).ok());
    store.Publish();
    ++epochs;
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.version(), epochs + 1);  // +1 for the baseline publish
}

// --------------------------------------------------------- MergedStoreView

TEST(MergedStoreView, FreshViewMatchesCartesianProductTable) {
  const TableSpec a{0, "a", 6, 4, 4};
  const TableSpec b{1, "b", 5, 8, 4};
  VersionedEmbeddingStore sa(a, 11), sb(b, 22);
  MergedStoreView view({&sa, &sb});

  auto product = CartesianProductTable::Materialize(
      {EmbeddingTable::Materialize(a, 11), EmbeddingTable::Materialize(b, 22)});
  ASSERT_TRUE(product.ok());
  const auto& table = product.value();
  ASSERT_EQ(view.rows(), table.rows());
  ASSERT_EQ(view.dim(), table.dim());

  std::vector<float> got(view.dim());
  for (std::uint64_t row = 0; row < view.rows(); ++row) {
    view.Lookup(row, got);
    const auto want = table.Lookup(row);
    for (std::uint32_t c = 0; c < view.dim(); ++c) {
      ASSERT_EQ(got[c], want[c]) << "combined row " << row << " col " << c;
    }
  }
}

TEST(MergedStoreView, ReflectsMemberUpdatesAfterPublish) {
  const TableSpec a{0, "a", 4, 2, 4};
  const TableSpec b{1, "b", 3, 2, 4};
  VersionedEmbeddingStore sa(a, 1), sb(b, 2);
  MergedStoreView view({&sa, &sb});

  UpdateBatch batch;
  EmbeddingDelta d;
  d.table_id = 1;
  d.row = 2;
  d.kind = DeltaKind::kOverwrite;
  d.values = {5.0f, 6.0f};
  batch.deltas = {d};
  ASSERT_TRUE(sb.Apply(batch).ok());
  sb.Publish();

  // Every combined row whose b-member is row 2 now carries the new values
  // in the b slice of the concatenation.
  std::vector<float> got(view.dim());
  const auto combined = view.combined();
  for (std::uint64_t ra = 0; ra < a.rows; ++ra) {
    const std::uint64_t row = combined.CombinedRowIndex({ra, 2});
    view.Lookup(row, got);
    EXPECT_EQ(got[a.dim + 0], 5.0f);
    EXPECT_EQ(got[a.dim + 1], 6.0f);
  }
  // Amplification: one b-row delta dirties a.rows product entries.
  EXPECT_EQ(view.WriteAmplificationRows(1), a.rows);
  EXPECT_EQ(view.WriteAmplificationRows(0), b.rows);
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

  DeltaStreamConfig config;
  config.rows_per_batch = 32;
  DeltaStream stream(model, config);
  const auto batch = stream.NextBatch();
  const Nanoseconds done = injector.Inject(batch, 1000.0);
  EXPECT_GT(done, 1000.0);
  EXPECT_EQ(injector.stats().write_transactions, batch.size());
  EXPECT_GT(injector.stats().bytes_written, 0u);

  // A lookup issued while writes drain waits; issued after, it does not.
  const auto lookup = plan.ToBankAccesses(1);
  EXPECT_GT(injector.LookupDelay(lookup, 1000.0), 0.0);
  EXPECT_EQ(injector.LookupDelay(lookup, done + 1.0), 0.0);
}

// --------------------------------------------------------- IncrementalReplan

TEST(Replanner, NoMigrationWhileGrowthFits) {
  const auto model = TinyModel();
  PlacementOptions options;
  const auto platform = MemoryPlatformSpec::AlveoU280();
  auto plan = HeuristicSearch(model.tables, platform, options).value();
  IncrementalReplanner replanner(model.tables, plan, platform, options);

  // Tiny growth on a huge bank: spec patched, no migration.
  const auto result = replanner.OnRowGrowth(2, model.tables[2].rows + 10, 5.0);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().has_value());
  EXPECT_EQ(replanner.tables()[2].rows, model.tables[2].rows + 10);
  EXPECT_TRUE(replanner.migrations().empty());
}

TEST(Replanner, OverflowTriggersMigrationWithCost) {
  // A cramped platform: two DRAM banks barely fitting two tables, so
  // growing one past its bank forces a re-placement.
  MemoryPlatformSpec platform;
  platform.hbm_channels = 2;
  platform.hbm_channel_capacity = 40_KiB;
  platform.ddr_channels = 0;
  platform.onchip_banks = 0;

  std::vector<TableSpec> tables = {
      TableSpec{0, "grow", 2000, 4, 4},   // 32000 B
      TableSpec{1, "small", 500, 4, 4},   // 8000 B
  };
  PlacementOptions options;
  options.allow_onchip = false;
  options.allow_cartesian = false;
  auto plan = HeuristicSearch(tables, platform, options).value();
  IncrementalReplanner replanner(tables, plan, platform, options);

  // Growth that still fits in a 40 KiB bank alone but not next to the
  // small table: 2400 rows * 16 B = 38400 B.
  const auto result = replanner.OnRowGrowth(0, 2400, 123.0);
  ASSERT_TRUE(result.ok());
  if (result.value().has_value()) {
    const auto& event = result.value().value();
    EXPECT_GT(event.tables_moved, 0u);
    EXPECT_GT(event.bytes_moved, 0u);
    EXPECT_GT(event.cost_ns, 0.0);
    EXPECT_EQ(event.time_ns, 123.0);
    EXPECT_EQ(event.trigger_table, 0u);
    EXPECT_FALSE(event.destination_writes.empty());
    EXPECT_EQ(replanner.migrations().size(), 1u);
  } else {
    // The two tables may already sit on separate banks; force overflow of
    // the growing table's own bank instead.
    const auto forced = replanner.OnRowGrowth(0, 3000, 456.0);
    ASSERT_FALSE(forced.ok() && !forced.value().has_value());
  }
  ASSERT_TRUE(ValidatePlan(replanner.plan(), platform).ok());
}

TEST(Replanner, InfeasibleGrowthFailsCleanly) {
  MemoryPlatformSpec platform;
  platform.hbm_channels = 1;
  platform.hbm_channel_capacity = 16_KiB;
  platform.ddr_channels = 0;
  platform.onchip_banks = 0;
  std::vector<TableSpec> tables = {TableSpec{0, "t", 500, 4, 4}};
  PlacementOptions options;
  options.allow_onchip = false;
  options.allow_cartesian = false;
  auto plan = HeuristicSearch(tables, platform, options).value();
  IncrementalReplanner replanner(tables, plan, platform, options);
  const auto result = replanner.OnRowGrowth(0, 5000, 0.0);  // 80 KB > 16 KiB
  EXPECT_FALSE(result.ok());
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

TEST(UpdateServing, SlowerPublishCadenceIncreasesStaleness) {
  const auto ctx = BuildContext();
  const auto arrivals = PoissonArrivals(150'000.0, 6000, 4);

  double last_staleness = -1.0;
  for (std::uint32_t cadence : {1u, 4u, 16u}) {
    UpdateServingConfig config;
    config.item_latency_ns = ctx.item_latency;
    config.initiation_interval_ns = ctx.ii;
    config.deltas.update_row_qps = 2e6;
    config.deltas.seed = 17;
    config.publish_every_batches = cadence;
    const auto report = SimulateServingWithUpdates(
        ctx.model, ctx.plan, ctx.options.platform, arrivals, config);
    EXPECT_GE(report.staleness_p99, last_staleness - 1.0)
        << "staleness shrank at cadence " << cadence;
    last_staleness = report.staleness_p99;
  }
}

TEST(UpdateServing, GrowthStreamRunsAndReportsUpdates) {
  const auto ctx = BuildContext();
  const auto arrivals = PoissonArrivals(100'000.0, 3000, 4);

  UpdateServingConfig config;
  config.item_latency_ns = ctx.item_latency;
  config.initiation_interval_ns = ctx.ii;
  config.deltas.update_row_qps = 2e6;
  config.deltas.growth_fraction = 0.1;
  config.deltas.seed = 29;
  const auto report = SimulateServingWithUpdates(
      ctx.model, ctx.plan, ctx.options.platform, arrivals, config);
  EXPECT_GT(report.update_rows, 0u);
  EXPECT_GT(report.update_bytes_written, 0u);
  EXPECT_EQ(report.serving.queries, arrivals.size());
  EXPECT_FALSE(report.ToString().empty());
}

}  // namespace
}  // namespace microrec
