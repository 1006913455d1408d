// Tests for the hardware profiling layer (obs/prof/): the multiplexing
// scaling math on synthetic readings, ProfScope RAII semantics (nesting,
// exception safety, nullptr identity), backend degradation, the roofline
// classifier, the derived-metric report, and the engine-level identity
// contract: attaching a profiler never changes CpuEngine outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "cpu/cpu_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/counters.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/prof/report.hpp"
#include "obs/prof/roofline.hpp"
#include "tensor/gemm.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

namespace microrec::obs::prof {
namespace {

// ---------------------------------------------------------- CounterScaling

TEST(CounterScaling, FullyRunningCountIsUnscaled) {
  EXPECT_DOUBLE_EQ(ScaleCounterValue(1000, 500, 500), 1000.0);
  // running > enabled (clock skew in the kernel's bookkeeping) must not
  // shrink the count either.
  EXPECT_DOUBLE_EQ(ScaleCounterValue(1000, 500, 600), 1000.0);
}

TEST(CounterScaling, NeverScheduledYieldsZero) {
  EXPECT_DOUBLE_EQ(ScaleCounterValue(1234, 500, 0), 0.0);
}

TEST(CounterScaling, MultiplexedCountExtrapolates) {
  // Counted for half the interval: the estimate doubles the raw count.
  EXPECT_DOUBLE_EQ(ScaleCounterValue(1000, 800, 400), 2000.0);
  EXPECT_DOUBLE_EQ(ScaleCounterValue(300, 900, 300), 900.0);
}

GroupReading SyntheticReading(std::uint64_t raw, std::uint64_t enabled,
                              std::uint64_t running, Nanoseconds wall) {
  GroupReading r;
  for (auto& c : r.counters) {
    c.raw = raw;
    c.time_enabled = enabled;
    c.time_running = running;
    c.valid = true;
  }
  r.wall_ns = wall;
  return r;
}

TEST(CounterScaling, DeltaScaledSubtractsThenScales) {
  const GroupReading begin = SyntheticReading(100, 1000, 1000, 5e3);
  const GroupReading end = SyntheticReading(700, 2000, 2000, 9e3);
  const CounterDelta d = DeltaScaled(begin, end);
  EXPECT_FALSE(d.multiplexed);
  EXPECT_DOUBLE_EQ(d.wall_ns, 4e3);
  for (std::size_t i = 0; i < kNumHwCounters; ++i) {
    EXPECT_TRUE(d.valid[i]);
    EXPECT_DOUBLE_EQ(d.value[i], 600.0);
  }
}

TEST(CounterScaling, DeltaScaledExtrapolatesMultiplexedInterval) {
  // Interval: enabled advanced 1000, running only 250 -> raw delta of 80
  // extrapolates 4x, and the delta is flagged as multiplexed.
  const GroupReading begin = SyntheticReading(20, 500, 500, 0.0);
  const GroupReading end = SyntheticReading(100, 1500, 750, 1e3);
  const CounterDelta d = DeltaScaled(begin, end);
  EXPECT_TRUE(d.multiplexed);
  EXPECT_DOUBLE_EQ(d.Get(HwCounter::kCycles), 320.0);
}

TEST(CounterScaling, InvalidCountersStayInvalidAndZero) {
  GroupReading begin = SyntheticReading(10, 100, 100, 0.0);
  GroupReading end = SyntheticReading(90, 200, 200, 1e3);
  const auto stalled = static_cast<std::size_t>(HwCounter::kStalledCycles);
  begin.counters[stalled].valid = false;
  end.counters[stalled].valid = false;
  const CounterDelta d = DeltaScaled(begin, end);
  EXPECT_FALSE(d.Valid(HwCounter::kStalledCycles));
  EXPECT_DOUBLE_EQ(d.Get(HwCounter::kStalledCycles), 0.0);
  EXPECT_TRUE(d.Valid(HwCounter::kCycles));
  EXPECT_DOUBLE_EQ(d.Get(HwCounter::kCycles), 80.0);
}

TEST(CounterScaling, DeltaAccumulateSumsValuesAndWall) {
  const GroupReading zero = SyntheticReading(0, 0, 0, 0.0);
  CounterDelta acc = DeltaScaled(zero, SyntheticReading(50, 100, 100, 2e3));
  acc += DeltaScaled(zero, SyntheticReading(70, 100, 100, 3e3));
  EXPECT_DOUBLE_EQ(acc.Get(HwCounter::kInstructions), 120.0);
  EXPECT_DOUBLE_EQ(acc.wall_ns, 5e3);
}

// -------------------------------------------------------------- ProfScope

TEST(ProfScope, AccumulatesIntoNamedPhase) {
  HwProfiler prof({.backend = ProfBackend::kTimer});
  {
    ProfScope scope(&prof, "work");
  }
  {
    ProfScope scope(&prof, "work");
  }
  const auto it = prof.phases().find("work");
  ASSERT_NE(it, prof.phases().end());
  EXPECT_EQ(it->second.calls, 2u);
  EXPECT_GE(it->second.totals.wall_ns, 0.0);
}

TEST(ProfScope, NestedScopesAttributeInclusively) {
  HwProfiler prof({.backend = ProfBackend::kTimer});
  {
    ProfScope outer(&prof, "outer");
    {
      ProfScope inner(&prof, "inner");
    }
  }
  ASSERT_EQ(prof.phases().size(), 2u);
  const double outer_ns = prof.phases().at("outer").totals.wall_ns;
  const double inner_ns = prof.phases().at("inner").totals.wall_ns;
  EXPECT_GE(outer_ns, inner_ns);  // outer includes inner's interval
}

TEST(ProfScope, RecordsPhaseWhenScopeUnwindsThroughException) {
  HwProfiler prof({.backend = ProfBackend::kTimer});
  try {
    ProfScope scope(&prof, "throwing");
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  const auto it = prof.phases().find("throwing");
  ASSERT_NE(it, prof.phases().end());
  EXPECT_EQ(it->second.calls, 1u);
}

TEST(ProfScope, NullProfilerIsAFullNoOp) {
  ProfScope scope(nullptr, "ignored");
  // Destruction must also be a no-op; nothing observable to assert beyond
  // not crashing, which is the contract.
}

// -------------------------------------------------------------- HwProfiler

TEST(HwProfiler, NullBackendIsHonoredExactly) {
  HwProfiler prof({.backend = ProfBackend::kNull});
  EXPECT_EQ(prof.backend(), ProfBackend::kNull);
  EXPECT_EQ(prof.group().num_valid(), 0u);
}

TEST(HwProfiler, TimerBackendIsHonoredExactly) {
  HwProfiler prof({.backend = ProfBackend::kTimer});
  EXPECT_EQ(prof.backend(), ProfBackend::kTimer);
  EXPECT_EQ(prof.group().num_valid(), 0u);
  // Wall clock still ticks on the timer tier.
  const GroupReading a = prof.ReadCounters();
  const GroupReading b = prof.ReadCounters();
  EXPECT_GE(b.wall_ns, a.wall_ns);
}

TEST(HwProfiler, PerfEventRequestDegradesGracefully) {
  // On a perf-capable host this opens real counters; in a container it
  // must degrade to the timer tier, never fail or fall to null.
  HwProfiler prof({.backend = ProfBackend::kPerfEvent});
  EXPECT_TRUE(prof.backend() == ProfBackend::kPerfEvent ||
              prof.backend() == ProfBackend::kTimer);
}

TEST(HwProfiler, AddPhaseWorkAccumulatesDenominators) {
  HwProfiler prof({.backend = ProfBackend::kNull});
  prof.AddPhaseWork("gather", 1000.0, 250.0);
  prof.AddPhaseWork("gather", 1000.0, 250.0);
  const PhaseStats& stats = prof.phases().at("gather");
  EXPECT_DOUBLE_EQ(stats.bytes, 2000.0);
  EXPECT_DOUBLE_EQ(stats.flops, 500.0);
}

TEST(HwProfiler, RecordBatchFeedsLatencyHistogram) {
  HwProfiler prof({.backend = ProfBackend::kNull});
  for (int i = 1; i <= 100; ++i) prof.RecordBatch(1e6 * i);
  EXPECT_EQ(prof.batch_latency().count(), 100u);
  const double p50 = prof.batch_latency().Quantile(0.5);
  EXPECT_GT(p50, 30e6);
  EXPECT_LT(p50, 80e6);
}

// ---------------------------------------------------------------- Roofline

TEST(Roofline, RidgeIsGopsOverBandwidth) {
  const RooflineSpec spec{.peak_bw_gbs = 10.0, .peak_gops = 40.0,
                          .probed = true};
  EXPECT_DOUBLE_EQ(spec.RidgeFlopsPerByte(), 4.0);
  EXPECT_TRUE(spec.valid());
}

TEST(Roofline, ClassifiesAgainstRidge) {
  const RooflineSpec spec{.peak_bw_gbs = 10.0, .peak_gops = 40.0,
                          .probed = true};
  EXPECT_EQ(ClassifyIntensity(0.25, spec), PhaseBound::kMemory);
  EXPECT_EQ(ClassifyIntensity(55.0, spec), PhaseBound::kCompute);
  EXPECT_EQ(ClassifyIntensity(0.0, spec), PhaseBound::kUnknown);
  EXPECT_EQ(ClassifyIntensity(1.0, RooflineSpec{}), PhaseBound::kUnknown);
}

TEST(Roofline, ProbeAlwaysReturnsUsableCeilings) {
  RooflineProbeOptions opts;
  opts.copy_bytes = 4ull << 20;  // keep the test fast
  opts.reps = 1;
  opts.fma_iters = 1u << 18;
  const RooflineSpec spec = ProbeRoofline(opts);
  EXPECT_TRUE(spec.valid());
  EXPECT_GT(spec.peak_bw_gbs, 0.0);
  EXPECT_GT(spec.peak_gops, 0.0);
}

TEST(Roofline, FmaProbeKernelsAgreeOnWorkDone) {
  // The scalar variant runs 16 chains and the AVX2 variant 12 chains of
  // 8 lanes, one FMA per chain per iteration; the declared flop count is
  // what the GOP/s math divides by.
  EXPECT_EQ(FmaProbeFlops(100, /*avx2=*/false), 2ull * 16 * 100);
  EXPECT_EQ(FmaProbeFlops(100, /*avx2=*/true), 2ull * 12 * 8 * 100);
  const float scalar = FmaProbeKernelScalar(1024);
  EXPECT_TRUE(std::isfinite(scalar));
  if (CpuSupportsAvx2()) {
    EXPECT_TRUE(std::isfinite(FmaProbeKernelAvx2(1024)));
  }
}

// -------------------------------------------------------------- ProfReport

CounterDelta SyntheticDelta(double cycles, double instructions,
                            double llc_refs, double llc_misses,
                            Nanoseconds wall_ns) {
  CounterDelta d;
  d.valid.fill(true);
  d.value[static_cast<std::size_t>(HwCounter::kCycles)] = cycles;
  d.value[static_cast<std::size_t>(HwCounter::kInstructions)] = instructions;
  d.value[static_cast<std::size_t>(HwCounter::kLlcRefs)] = llc_refs;
  d.value[static_cast<std::size_t>(HwCounter::kLlcMisses)] = llc_misses;
  d.wall_ns = wall_ns;
  return d;
}

TEST(ProfReport, DerivesRatesFromSyntheticPhases) {
  HwProfiler prof({.backend = ProfBackend::kNull});
  // gather: 1e6 ns, 4e6 bytes (4 GB/s), 1e6 flops, IPC 0.5, 40% LLC miss.
  prof.AddPhaseSample("gather", SyntheticDelta(2e6, 1e6, 1e5, 4e4, 1e6));
  prof.AddPhaseWork("gather", 4e6, 1e6);
  // gemm: 1e6 ns, 2e7 flops (20 GOP/s), intensity 50.
  prof.AddPhaseSample("gemm", SyntheticDelta(3e6, 9e6, 1e4, 1e2, 1e6));
  prof.AddPhaseWork("gemm", 4e5, 2e7);
  prof.RecordBatch(2e6);

  const RooflineSpec roof{.peak_bw_gbs = 10.0, .peak_gops = 40.0,
                          .probed = true};
  const ProfileReport report = ProfileReport::Build(prof, roof);

  const PhaseReport* gather = report.FindPhase("gather");
  ASSERT_NE(gather, nullptr);
  EXPECT_TRUE(gather->counters_valid);
  EXPECT_DOUBLE_EQ(gather->ipc, 0.5);
  EXPECT_DOUBLE_EQ(gather->llc_miss_rate, 0.4);
  EXPECT_DOUBLE_EQ(gather->gbs, 4.0);
  EXPECT_DOUBLE_EQ(gather->intensity, 0.25);
  EXPECT_EQ(gather->bound, PhaseBound::kMemory);
  EXPECT_DOUBLE_EQ(gather->roof_pct, 40.0);  // 4 of 10 GB/s

  const PhaseReport* gemm = report.FindPhase("gemm");
  ASSERT_NE(gemm, nullptr);
  EXPECT_DOUBLE_EQ(gemm->ipc, 3.0);
  EXPECT_DOUBLE_EQ(gemm->gops, 20.0);
  EXPECT_DOUBLE_EQ(gemm->intensity, 50.0);
  EXPECT_EQ(gemm->bound, PhaseBound::kCompute);
  EXPECT_DOUBLE_EQ(gemm->roof_pct, 50.0);  // 20 of 40 GOP/s

  EXPECT_EQ(report.latency.batches, 1u);
  EXPECT_GT(report.latency.p50_us, 0.0);
}

TEST(ProfReport, TimerTierPhasesReportCountersInvalid) {
  HwProfiler prof({.backend = ProfBackend::kTimer});
  {
    ProfScope scope(&prof, "work");
  }
  prof.AddPhaseWork("work", 1e6, 1e6);
  const ProfileReport report =
      ProfileReport::Build(prof, RooflineSpec{.peak_bw_gbs = 10.0,
                                              .peak_gops = 40.0});
  const PhaseReport* work = report.FindPhase("work");
  ASSERT_NE(work, nullptr);
  EXPECT_FALSE(work->counters_valid);
  EXPECT_DOUBLE_EQ(work->ipc, 0.0);
}

TEST(ProfReport, JsonCarriesBackendAndSchema) {
  HwProfiler prof({.backend = ProfBackend::kTimer});
  prof.AddPhaseWork("gather", 1.0, 1.0);
  const ProfileReport report = ProfileReport::Build(prof, RooflineSpec{});
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"profiler_backend\": \"timer\""), std::string::npos);
  EXPECT_NE(json.find("\"roofline\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"counters_valid\": false"), std::string::npos);
}

TEST(ProfReport, ExportsPrometheusSeriesPerPhase) {
  HwProfiler prof({.backend = ProfBackend::kNull});
  prof.AddPhaseSample("gather", SyntheticDelta(2e6, 1e6, 1e5, 4e4, 1e6));
  prof.AddPhaseWork("gather", 4e6, 1e6);
  prof.RecordBatch(1e6);
  const ProfileReport report = ProfileReport::Build(
      prof, RooflineSpec{.peak_bw_gbs = 10.0, .peak_gops = 40.0,
                         .probed = true});
  MetricsRegistry registry;
  report.ExportMetrics(registry);
  ProfileReport::ExportBatchLatency(prof.batch_latency(), registry);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("prof_phase_ipc{phase=\"gather\"}"), std::string::npos);
  EXPECT_NE(prom.find("prof_backend_tier"), std::string::npos);
  EXPECT_NE(prom.find("prof_batch_latency_ns"), std::string::npos);
}

// ------------------------------------------------------------ ProfIdentity

std::vector<float> RunBatches(CpuEngine& engine,
                              const std::vector<std::vector<SparseQuery>>&
                                  batches) {
  InferenceScratch scratch;
  std::vector<float> all;
  for (const auto& queries : batches) {
    const auto probs = engine.InferBatch(queries, scratch);
    all.insert(all.end(), probs.begin(), probs.end());
  }
  return all;
}

TEST(ProfIdentity, AttachedProfilerNeverChangesEngineOutputs) {
  const RecModelSpec model = PooledCpuGateModel();
  CpuEngine engine(model, /*max_physical_rows=*/1 << 12);
  QueryGenerator gen(model, IndexDistribution::kUniform, 99);
  std::vector<std::vector<SparseQuery>> batches;
  for (int b = 0; b < 3; ++b) batches.push_back(gen.NextBatch(16));

  const std::vector<float> detached = RunBatches(engine, batches);

  for (const ProfBackend backend :
       {ProfBackend::kNull, ProfBackend::kTimer, ProfBackend::kPerfEvent}) {
    HwProfiler prof({.backend = backend});
    engine.set_profiler(&prof);
    const std::vector<float> attached = RunBatches(engine, batches);
    engine.set_profiler(nullptr);
    ASSERT_EQ(attached.size(), detached.size());
    for (std::size_t i = 0; i < detached.size(); ++i) {
      // Bit-identical, not approximately equal: the profiler only reads
      // counters and clocks, never feeds back into the computation.
      EXPECT_EQ(attached[i], detached[i]) << "backend "
                                          << ProfBackendName(backend);
    }
  }
}

TEST(ProfIdentity, InferOneMatchesWithProfilerAttached) {
  const RecModelSpec model = PooledCpuGateModel();
  CpuEngine engine(model, /*max_physical_rows=*/1 << 12);
  QueryGenerator gen(model, IndexDistribution::kUniform, 7);
  const SparseQuery query = gen.Next();

  InferenceScratch scratch;
  const float detached = engine.InferOne(query, scratch);
  HwProfiler prof({.backend = ProfBackend::kTimer});
  engine.set_profiler(&prof);
  const float attached = engine.InferOne(query, scratch);
  engine.set_profiler(nullptr);
  EXPECT_EQ(attached, detached);
  // And the profiler actually saw the phases the engine declares.
  EXPECT_NE(prof.phases().find("gather"), prof.phases().end());
  EXPECT_NE(prof.phases().find("gemm"), prof.phases().end());
  EXPECT_NE(prof.phases().find("head_sigmoid"), prof.phases().end());
}

TEST(ProfIdentity, InferBatchAttributesAllPhasesAndLatency) {
  const RecModelSpec model = PooledCpuGateModel();
  CpuEngine engine(model, /*max_physical_rows=*/1 << 12);
  QueryGenerator gen(model, IndexDistribution::kUniform, 7);
  const auto queries = gen.NextBatch(8);

  HwProfiler prof({.backend = ProfBackend::kTimer});
  engine.set_profiler(&prof);
  InferenceScratch scratch;
  engine.InferBatch(queries, scratch);
  engine.set_profiler(nullptr);

  for (const char* phase : {"batch", "gather", "gemm", "head_sigmoid"}) {
    const auto it = prof.phases().find(phase);
    ASSERT_NE(it, prof.phases().end()) << phase;
    EXPECT_EQ(it->second.calls, 1u) << phase;
  }
  // Declared gather work: 8 queries x 8 tables x 80 lookups x 64 floats.
  EXPECT_DOUBLE_EQ(prof.phases().at("gather").bytes,
                   8.0 * 8.0 * 80.0 * 64.0 * 4.0);
  EXPECT_EQ(prof.batch_latency().count(), 1u);
}

}  // namespace
}  // namespace microrec::obs::prof
