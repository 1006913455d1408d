// Tests for the hybrid memory simulator: channel timing math, event-driven
// serialization, the analytic round model, and their agreement.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "memsim/channel_sim.hpp"
#include "memsim/dram_timing.hpp"
#include "memsim/hybrid_memory.hpp"
#include "memsim/trace_analysis.hpp"

namespace microrec {
namespace {

// ---------------------------------------------------------------- Timing

TEST(ChannelTimingTest, BeatsRoundUp) {
  ChannelTiming t{100.0, 5.0, 32, {}};
  EXPECT_EQ(t.Beats(4), 1u);    // 32 bits exactly
  EXPECT_EQ(t.Beats(5), 2u);    // 40 bits -> 2 beats
  EXPECT_EQ(t.Beats(16), 4u);   // a dim-4 fp32 vector
  EXPECT_EQ(t.Beats(256), 64u); // a dim-64 fp32 vector
}

TEST(ChannelTimingTest, AccessLatencyLinearInBeats) {
  ChannelTiming t{100.0, 5.0, 32, {}};
  EXPECT_DOUBLE_EQ(t.AccessLatency(4), 105.0);
  EXPECT_DOUBLE_EQ(t.AccessLatency(16), 120.0);
}

TEST(ChannelTimingTest, CalibrationReproducesPaperTable5SingleRound) {
  // Paper Table 5: one round of lookups over HBM took 334.5 ns at vector
  // length 4 and 648.4 ns at length 64 (fp32 elements).
  const ChannelTiming hbm = HbmChannelTiming();
  EXPECT_NEAR(hbm.AccessLatency(4 * 4), 334.5, 2.0);
  EXPECT_NEAR(hbm.AccessLatency(64 * 4), 648.4, 2.0);
}

TEST(ChannelTimingTest, HbmAndDdrShareTiming) {
  // Paper 3.2.2: Vitis memory controllers give HBM and DDR close latency.
  EXPECT_DOUBLE_EQ(HbmChannelTiming().base_ns, DdrChannelTiming().base_ns);
  EXPECT_DOUBLE_EQ(HbmChannelTiming().beat_ns, DdrChannelTiming().beat_ns);
}

TEST(ChannelTimingTest, OnChipIsAboutOneThirdOfDram) {
  // Paper 3.2.2: retrieving a vector from on-chip memory takes up to about
  // one third of a DDR4/HBM access.
  const ChannelTiming onchip = OnChipTiming();
  const ChannelTiming hbm = HbmChannelTiming();
  for (Bytes bytes : {16ull, 64ull, 256ull}) {
    const double ratio = onchip.AccessLatency(bytes) / hbm.AccessLatency(bytes);
    EXPECT_GT(ratio, 0.2) << bytes;
    EXPECT_LT(ratio, 0.4) << bytes;
  }
}

// ---------------------------------------------------------------- Platform

TEST(MemoryPlatformTest, AlveoU280Shape) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  EXPECT_EQ(spec.hbm_channels, 32u);
  EXPECT_EQ(spec.ddr_channels, 2u);
  EXPECT_EQ(spec.dram_channels(), 34u);
  EXPECT_EQ(spec.hbm_channel_capacity * spec.hbm_channels, 8_GiB);
  EXPECT_EQ(spec.ddr_channel_capacity * spec.ddr_channels, 32_GiB);
}

TEST(MemoryPlatformTest, BankKindOrdering) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  EXPECT_EQ(spec.KindOfBank(0), MemoryKind::kHbm);
  EXPECT_EQ(spec.KindOfBank(31), MemoryKind::kHbm);
  EXPECT_EQ(spec.KindOfBank(32), MemoryKind::kDdr);
  EXPECT_EQ(spec.KindOfBank(33), MemoryKind::kDdr);
  EXPECT_EQ(spec.KindOfBank(34), MemoryKind::kOnChip);
  EXPECT_EQ(spec.KindOfBank(spec.total_banks() - 1), MemoryKind::kOnChip);
}

TEST(MemoryPlatformTest, CapacityPerKind) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  EXPECT_EQ(spec.CapacityOfBank(0), 256_MiB);
  EXPECT_EQ(spec.CapacityOfBank(32), 16_GiB);
  EXPECT_EQ(spec.CapacityOfBank(34), 512_KiB);
}

TEST(MemoryPlatformTest, DdrOnlyCardHasNoHbm) {
  const auto spec = MemoryPlatformSpec::DdrOnlyCard(4);
  EXPECT_EQ(spec.hbm_channels, 0u);
  EXPECT_EQ(spec.ddr_channels, 4u);
  EXPECT_EQ(spec.KindOfBank(0), MemoryKind::kDdr);
}

TEST(MemoryPlatformTest, KindNames) {
  EXPECT_STREQ(MemoryKindName(MemoryKind::kHbm), "HBM");
  EXPECT_STREQ(MemoryKindName(MemoryKind::kDdr), "DDR");
  EXPECT_STREQ(MemoryKindName(MemoryKind::kOnChip), "OnChip");
}

// ---------------------------------------------------------------- ChannelSim

TEST(ChannelSimTest, SingleAccessLatency) {
  ChannelSim sim(ChannelTiming{100.0, 5.0, 32, {}});
  const auto done = sim.Serve(MemRequest{0.0, 16, 1});
  EXPECT_DOUBLE_EQ(done.start_ns, 0.0);
  EXPECT_DOUBLE_EQ(done.completion_ns, 120.0);
  EXPECT_DOUBLE_EQ(done.queue_delay_ns, 0.0);
  EXPECT_EQ(done.tag, 1u);
}

TEST(ChannelSimTest, ConcurrentRequestsSerialize) {
  ChannelSim sim(ChannelTiming{100.0, 5.0, 32, {}});
  const auto a = sim.Serve(MemRequest{0.0, 16, 1});
  const auto b = sim.Serve(MemRequest{0.0, 16, 2});
  EXPECT_DOUBLE_EQ(a.completion_ns, 120.0);
  EXPECT_DOUBLE_EQ(b.start_ns, 120.0);
  EXPECT_DOUBLE_EQ(b.completion_ns, 240.0);
  EXPECT_DOUBLE_EQ(b.queue_delay_ns, 120.0);
}

TEST(ChannelSimTest, IdleGapResetsQueue) {
  ChannelSim sim(ChannelTiming{100.0, 5.0, 32, {}});
  sim.Serve(MemRequest{0.0, 16, 1});
  const auto b = sim.Serve(MemRequest{500.0, 16, 2});
  EXPECT_DOUBLE_EQ(b.start_ns, 500.0);
  EXPECT_DOUBLE_EQ(b.queue_delay_ns, 0.0);
}

TEST(ChannelSimTest, OverlapHidesInitiationWhenQueued) {
  ChannelSim sim(ChannelTiming{100.0, 5.0, 32, {}}, /*overlap=*/0.5);
  const auto a = sim.Serve(MemRequest{0.0, 16, 1});
  const auto b = sim.Serve(MemRequest{0.0, 16, 2});
  EXPECT_DOUBLE_EQ(a.completion_ns, 120.0);  // idle start: full latency
  // Queued request hides half its 100 ns initiation: 120 - 50 = 70 service.
  EXPECT_DOUBLE_EQ(b.completion_ns, 190.0);
}

TEST(ChannelSimTest, StatsAccumulate) {
  ChannelSim sim(ChannelTiming{100.0, 5.0, 32, {}});
  sim.Serve(MemRequest{0.0, 16, 1});
  sim.Serve(MemRequest{0.0, 32, 2});
  EXPECT_EQ(sim.stats().accesses, 2u);
  EXPECT_EQ(sim.stats().bytes_read, 48u);
  EXPECT_DOUBLE_EQ(sim.stats().busy_ns, 120.0 + 140.0);
}

TEST(ChannelSimTest, ResetClearsTimeAndStats) {
  ChannelSim sim(ChannelTiming{100.0, 5.0, 32, {}});
  sim.Serve(MemRequest{0.0, 16, 1});
  sim.Reset();
  EXPECT_EQ(sim.stats().accesses, 0u);
  const auto done = sim.Serve(MemRequest{0.0, 16, 2});
  EXPECT_DOUBLE_EQ(done.start_ns, 0.0);
}

// ---------------------------------------------------------------- Refresh

TEST(ChannelRefreshTest, DisabledByDefault) {
  EXPECT_FALSE(HbmChannelTiming().refresh.enabled());
  EXPECT_FALSE(RefreshSpec::Disabled().enabled());
  EXPECT_TRUE(RefreshSpec::Hbm2Default().enabled());
}

TEST(ChannelRefreshTest, AccessInWindowDefers) {
  ChannelTiming timing{100.0, 5.0, 32, {}};
  timing.refresh = RefreshSpec{1000.0, 200.0};
  ChannelSim sim(timing);
  // Arrives at t=1050, inside the [1000, 1200) refresh window.
  const auto done = sim.Serve(MemRequest{1050.0, 16, 1});
  EXPECT_DOUBLE_EQ(done.start_ns, 1200.0);
  EXPECT_DOUBLE_EQ(done.completion_ns, 1320.0);
}

TEST(ChannelRefreshTest, AccessOutsideWindowUnaffected) {
  ChannelTiming timing{100.0, 5.0, 32, {}};
  timing.refresh = RefreshSpec{1000.0, 200.0};
  ChannelSim sim(timing);
  const auto done = sim.Serve(MemRequest{500.0, 16, 1});
  EXPECT_DOUBLE_EQ(done.start_ns, 500.0);
  // No refresh before the first interval boundary.
  ChannelSim sim2(timing);
  EXPECT_DOUBLE_EQ(sim2.Serve(MemRequest{50.0, 16, 2}).start_ns, 50.0);
}

TEST(ChannelRefreshTest, StealsThroughputUnderLoad) {
  ChannelTiming plain{100.0, 5.0, 32, {}};
  ChannelTiming refreshed = plain;
  refreshed.refresh = RefreshSpec{1000.0, 200.0};  // heavy: 20% duty
  ChannelSim a(plain), b(refreshed);
  Nanoseconds done_a = 0.0, done_b = 0.0;
  for (int i = 0; i < 200; ++i) {
    done_a = a.Serve(MemRequest{0.0, 16, 0}).completion_ns;
    done_b = b.Serve(MemRequest{0.0, 16, 0}).completion_ns;
  }
  EXPECT_GT(done_b, done_a * 1.05);
  EXPECT_LT(done_b, done_a * 1.35);  // ~20% duty, not unbounded
}

// ---------------------------------------------------------------- Hybrid

TEST(HybridMemoryTest, IndependentBanksProceedInParallel) {
  HybridMemorySystem mem(MemoryPlatformSpec::AlveoU280());
  std::vector<BankAccess> accesses;
  for (std::uint32_t b = 0; b < 32; ++b) {
    accesses.push_back(BankAccess{b, 16, b});
  }
  const auto result = mem.IssueBatch(accesses);
  // All banks work concurrently: total latency is one access, not 32.
  const Nanoseconds one = HbmChannelTiming().AccessLatency(16);
  EXPECT_DOUBLE_EQ(result.latency_ns(), one);
}

TEST(HybridMemoryTest, SameBankAccessesSerialize) {
  HybridMemorySystem mem(MemoryPlatformSpec::AlveoU280());
  std::vector<BankAccess> accesses = {{0, 16, 1}, {0, 16, 2}, {0, 16, 3}};
  const auto result = mem.IssueBatch(accesses);
  EXPECT_DOUBLE_EQ(result.latency_ns(),
                   3 * HbmChannelTiming().AccessLatency(16));
}

TEST(HybridMemoryTest, BatchesQueueBehindEachOther) {
  HybridMemorySystem mem(MemoryPlatformSpec::AlveoU280());
  const auto first = mem.IssueBatch({{0, 16, 1}});
  const auto second = mem.IssueBatch({{0, 16, 2}}, /*start_ns=*/0.0);
  EXPECT_GT(second.completion_ns, first.completion_ns);
}

TEST(HybridMemoryTest, TraceRecordsWhenEnabled) {
  HybridMemorySystem mem(MemoryPlatformSpec::AlveoU280());
  mem.set_trace_enabled(true);
  mem.IssueBatch({{0, 16, 7}, {5, 32, 8}});
  ASSERT_EQ(mem.trace().size(), 2u);
  EXPECT_EQ(mem.trace()[0].tag, 7u);
  EXPECT_EQ(mem.trace()[1].bank, 5u);
}

TEST(HybridMemoryTest, OnChipBankFasterThanDram) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  HybridMemorySystem mem(spec);
  const std::uint32_t onchip = spec.dram_channels();
  const auto dram = mem.IssueBatch({{0, 64, 1}});
  mem.Reset();
  const auto chip = mem.IssueBatch({{onchip, 64, 1}});
  EXPECT_LT(chip.latency_ns(), dram.latency_ns() / 2);
}

TEST(HybridMemoryTest, BatchLatencyIdleMatchesRoundModel) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  HybridMemorySystem mem(spec);
  std::vector<BankAccess> accesses = {{0, 16, 1}, {0, 32, 2}, {5, 64, 3}};
  EXPECT_DOUBLE_EQ(mem.BatchLatencyIdle(accesses),
                   RoundLatencyModel(spec).BatchLatency(accesses));
  // BatchLatencyIdle must not mutate simulator state.
  const auto result = mem.IssueBatch({{0, 16, 9}});
  EXPECT_DOUBLE_EQ(result.start_ns, 0.0);
  EXPECT_DOUBLE_EQ(result.completions[0].queue_delay_ns, 0.0);
}

// ---------------------------------------------------------------- TraceAnalysis

TEST(TraceAnalysisTest, SummarizesPerBankLoad) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  HybridMemorySystem mem(spec);
  mem.set_trace_enabled(true);
  mem.IssueBatch({{0, 16, 1}, {0, 16, 2}, {3, 64, 3}});
  const TraceSummary summary = SummarizeTrace(mem.trace(), spec);
  EXPECT_EQ(summary.total_accesses, 3u);
  EXPECT_EQ(summary.total_bytes, 96u);
  ASSERT_EQ(summary.banks.size(), 2u);
  EXPECT_EQ(summary.banks[0].bank, 0u);
  EXPECT_EQ(summary.banks[0].accesses, 2u);
  EXPECT_EQ(summary.banks[1].bank, 3u);
  // Bank 0 serves two serialized accesses: it is the critical bank.
  EXPECT_EQ(summary.critical_bank, 0u);
  EXPECT_GT(summary.dram_imbalance, 1.0);
  EXPECT_FALSE(summary.ToString().empty());
}

TEST(TraceAnalysisTest, EmptyTrace) {
  const TraceSummary summary =
      SummarizeTrace({}, MemoryPlatformSpec::AlveoU280());
  EXPECT_EQ(summary.total_accesses, 0u);
  EXPECT_TRUE(summary.banks.empty());
  EXPECT_DOUBLE_EQ(summary.dram_imbalance, 0.0);
}

TEST(TraceAnalysisTest, BalancedLoadHasUnitImbalance) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  HybridMemorySystem mem(spec);
  mem.set_trace_enabled(true);
  std::vector<BankAccess> accesses;
  for (std::uint32_t b = 0; b < 8; ++b) accesses.push_back({b, 16, b});
  mem.IssueBatch(accesses);
  const TraceSummary summary = SummarizeTrace(mem.trace(), spec);
  EXPECT_NEAR(summary.dram_imbalance, 1.0, 1e-9);
}

TEST(TraceAnalysisTest, OnChipExcludedFromImbalance) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  const std::uint32_t onchip = spec.dram_channels();
  HybridMemorySystem mem(spec);
  mem.set_trace_enabled(true);
  mem.IssueBatch({{0, 16, 1}, {onchip, 16, 2}, {onchip, 16, 3}});
  const TraceSummary summary = SummarizeTrace(mem.trace(), spec);
  // Only one DRAM bank is active: imbalance over DRAM banks is exactly 1.
  EXPECT_NEAR(summary.dram_imbalance, 1.0, 1e-9);
}

// Property: the analytic round model equals the event-driven simulator for
// any batch issued against an idle system.
class RoundModelAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundModelAgreementTest, AnalyticMatchesEventDriven) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  Rng rng(1000 + GetParam());
  std::vector<BankAccess> accesses;
  const int n = 1 + static_cast<int>(rng.NextBounded(80));
  for (int i = 0; i < n; ++i) {
    accesses.push_back(
        BankAccess{static_cast<std::uint32_t>(rng.NextBounded(spec.total_banks())),
                   4 * (1 + rng.NextBounded(64)), static_cast<std::uint64_t>(i)});
  }
  HybridMemorySystem mem(spec);
  const auto sim = mem.IssueBatch(accesses);
  const Nanoseconds analytic = RoundLatencyModel(spec).BatchLatency(accesses);
  EXPECT_NEAR(sim.latency_ns(), analytic, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundModelAgreementTest,
                         ::testing::Range(0, 20));

TEST(RoundLatencyModelTest, DramAccessRoundsIgnoresOnChip) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  RoundLatencyModel model(spec);
  const std::uint32_t onchip = spec.dram_channels();
  std::vector<BankAccess> accesses = {
      {0, 16, 1}, {0, 16, 2}, {1, 16, 3}, {onchip, 16, 4}, {onchip, 16, 5},
      {onchip, 16, 6}};
  EXPECT_EQ(model.DramAccessRounds(accesses), 2u);
}

TEST(RoundLatencyModelTest, EmptyBatchIsZero) {
  RoundLatencyModel model(MemoryPlatformSpec::AlveoU280());
  EXPECT_DOUBLE_EQ(model.BatchLatency({}), 0.0);
  EXPECT_EQ(model.DramAccessRounds({}), 0u);
}

TEST(RoundLatencyModelTest, TwelveTablesTakeTwiceEightTables) {
  // The paper's Table 5 structure: 8 tables x 4 lookups fills 32 channels
  // exactly (1 round); 12 tables x 4 lookups needs 2 rounds and takes
  // exactly twice as long at equal vector length.
  const auto spec = MemoryPlatformSpec::AlveoU280();
  RoundLatencyModel model(spec);
  auto build = [&](int lookups) {
    std::vector<BankAccess> accesses;
    for (int i = 0; i < lookups; ++i) {
      accesses.push_back(BankAccess{static_cast<std::uint32_t>(i % 32), 16,
                                    static_cast<std::uint64_t>(i)});
    }
    return accesses;
  };
  const Nanoseconds one_round = model.BatchLatency(build(32));
  const Nanoseconds two_rounds = model.BatchLatency(build(48));
  EXPECT_DOUBLE_EQ(two_rounds, 2.0 * one_round);
}

// ------------------------------------------------- hot-path equivalences

namespace {

/// Random batch over the first few banks, some with duplicate banks so
/// in-bank serialization and queueing both occur.
std::vector<BankAccess> RandomBatch(Rng& rng, std::uint32_t num_banks) {
  std::vector<BankAccess> accesses;
  const std::size_t n = 1 + rng.NextBounded(6);
  for (std::size_t i = 0; i < n; ++i) {
    accesses.push_back(BankAccess{
        static_cast<std::uint32_t>(rng.NextBounded(num_banks)),
        16 + 16 * rng.NextBounded(8), rng.Next() % 1000});
  }
  return accesses;
}

bool SameCompletions(const LookupBatchResult& a, const LookupBatchResult& b) {
  if (a.start_ns != b.start_ns || a.completion_ns != b.completion_ns ||
      a.completions.size() != b.completions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    const MemCompletion& x = a.completions[i];
    const MemCompletion& y = b.completions[i];
    if (x.tag != y.tag || x.start_ns != y.start_ns ||
        x.completion_ns != y.completion_ns ||
        x.queue_delay_ns != y.queue_delay_ns) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(HybridMemoryTest, IssueBatchIntoMatchesIssueBatchBitForBit) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  HybridMemorySystem fresh(spec);
  HybridMemorySystem reused(spec);
  LookupBatchResult scratch;
  Rng rng(314);
  Nanoseconds t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto batch = RandomBatch(rng, 8);
    t += 50.0 * static_cast<double>(rng.NextBounded(20));
    const LookupBatchResult a = fresh.IssueBatch(batch, t);
    reused.IssueBatchInto(batch, t, scratch);
    ASSERT_TRUE(SameCompletions(a, scratch)) << "batch " << i;
  }
  // Scratch reuse also leaves the simulators in identical states.
  for (std::uint32_t b = 0; b < 8; ++b) {
    EXPECT_EQ(fresh.bank_stats(b).accesses, reused.bank_stats(b).accesses);
    EXPECT_DOUBLE_EQ(fresh.bank_stats(b).busy_ns,
                     reused.bank_stats(b).busy_ns);
    EXPECT_DOUBLE_EQ(fresh.bank_stats(b).last_completion_ns,
                     reused.bank_stats(b).last_completion_ns);
  }
}

TEST(HybridMemoryTest, FastPathMatchesInstrumentedPathBitForBit) {
  // The devirtualized no-fault/no-telemetry fast path must produce the
  // same completions as the instrumented slow path: telemetry observes,
  // never perturbs (the obs identity contract, enforced here at the
  // memsim level).
  const auto spec = MemoryPlatformSpec::AlveoU280();
  HybridMemorySystem fast(spec);
  HybridMemorySystem instrumented(spec);
  obs::MetricsRegistry registry;
  MemsimTelemetry telemetry(&registry, spec);
  instrumented.set_telemetry(&telemetry);

  Rng rng(2718);
  Nanoseconds t = 0.0;
  std::uint64_t total_accesses = 0;
  for (int i = 0; i < 200; ++i) {
    const auto batch = RandomBatch(rng, 8);
    total_accesses += batch.size();
    t += 50.0 * static_cast<double>(rng.NextBounded(20));
    const LookupBatchResult a = fast.IssueBatch(batch, t);
    const LookupBatchResult b = instrumented.IssueBatch(batch, t);
    ASSERT_TRUE(SameCompletions(a, b)) << "batch " << i;
  }
  // And the instrumented path really did count every access.
  std::uint64_t counted = 0;
  for (const auto& c : registry.Snapshot().counters) {
    if (c.name == "memsim_accesses_total") counted += c.value;
  }
  EXPECT_EQ(counted, total_accesses);
}

TEST(HybridMemoryTest, TracePathMatchesFastPathBitForBit) {
  const auto spec = MemoryPlatformSpec::AlveoU280();
  HybridMemorySystem fast(spec);
  HybridMemorySystem traced(spec);
  traced.set_trace_enabled(true);
  Rng rng(99);
  Nanoseconds t = 0.0;
  std::size_t total = 0;
  for (int i = 0; i < 50; ++i) {
    const auto batch = RandomBatch(rng, 8);
    total += batch.size();
    t += 100.0 * static_cast<double>(rng.NextBounded(10));
    const LookupBatchResult a = fast.IssueBatch(batch, t);
    const LookupBatchResult b = traced.IssueBatch(batch, t);
    ASSERT_TRUE(SameCompletions(a, b)) << "batch " << i;
  }
  EXPECT_EQ(traced.trace().size(), total);
}

}  // namespace
}  // namespace microrec
