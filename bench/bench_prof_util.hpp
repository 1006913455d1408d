// Shared hardware-profiling section for the CPU benches (bench_kernels,
// bench_wallclock): runs profiled inference batches through a 1-thread
// CpuEngine, prints the roofline/phase table, and records one JSON record
// per phase with `prof_`-prefixed numeric fields.
//
// Perf-gate contract: every prof_* field is volatile (counter values vary
// run to run, and CI's timer tier reports zero counters where a perf host
// reports real ones) -- callers must MarkVolatile "prof_*" -- while the
// three booleans this helper puts in meta are HARD-compared:
//   * `gather_memory_bound`, `gemm_compute_bound`: the gather's arithmetic
//     intensity (~0.25 flops/byte) and the batched GEMM's (tens of
//     flops/byte) sit on opposite sides of any real machine's ridge point,
//     so the verdicts are host-independent even though the rates are not;
//   * `gemm_within_roof`: the gemm phase reads at most 110% of the probed
//     FMA roof. No kernel outruns the peak it is measured against, so a
//     phase above it means the probe reads low; the 10% slack absorbs the
//     timing noise between the probe and the phase.
// Backend tier and roofline ceilings are recorded as volatile *numbers*,
// never strings/bools, so a perf-host baseline still structurally matches
// a timer-tier CI run.
#pragma once

#include <cstdio>

#include "bench_util.hpp"
#include "cpu/cpu_engine.hpp"
#include "obs/prof/report.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

namespace microrec::bench {

struct ProfSectionResult {
  obs::prof::ProfileReport report;
  bool gather_memory_bound = false;
  bool gemm_compute_bound = false;
  bool gemm_within_roof = false;
};

/// Slack over 100% that `gemm_within_roof` allows the gemm phase.
constexpr double kMaxGemmRoofPct = 110.0;

/// Profiles `batches` batches of `batch` queries (fresh 1-thread engine so
/// the thread-scoped counters see every instruction), prints the phase
/// table, and appends the per-phase records + classification metas to
/// `json`. The caller must have marked "prof_*" volatile.
inline ProfSectionResult RunProfSection(JsonReport& json,
                                        const RecModelSpec& model,
                                        std::size_t batch, int batches,
                                        std::uint64_t seed) {
  CpuEngine engine(model, /*max_physical_rows=*/1ull << 16);
  QueryGenerator gen(model, IndexDistribution::kUniform, seed);
  InferenceScratch scratch;
  engine.ReserveScratch(scratch, batch);
  // Warm up detached so the measured batches see steady-state buffers.
  engine.InferBatch(gen.NextBatch(batch), scratch);

  obs::prof::HwProfiler prof;  // perf_event, degrading to timer
  engine.set_profiler(&prof);
  for (int b = 0; b < batches; ++b) {
    engine.InferBatch(gen.NextBatch(batch), scratch);
  }
  engine.set_profiler(nullptr);

  const obs::prof::RooflineSpec roofline = obs::prof::ProbeRoofline();
  ProfSectionResult result;
  result.report = obs::prof::ProfileReport::Build(prof, roofline);
  std::printf("%s", result.report.ToText().c_str());

  for (const auto& phase : result.report.phases) {
    json.AddRecord({{"phase", phase.name},
                    {"prof_calls", static_cast<double>(phase.calls)},
                    {"prof_wall_ms", phase.wall_ms},
                    {"prof_counters_valid", phase.counters_valid ? 1.0 : 0.0},
                    {"prof_ipc", phase.ipc},
                    {"prof_llc_miss_rate", phase.llc_miss_rate},
                    {"prof_gbs", phase.gbs},
                    {"prof_gops", phase.gops},
                    {"prof_intensity", phase.intensity},
                    {"prof_roof_pct", phase.roof_pct}});
  }
  json.Meta("prof_backend_tier",
            static_cast<double>(static_cast<int>(result.report.backend)));
  json.Meta("prof_peak_bw_gbs", roofline.peak_bw_gbs);
  json.Meta("prof_peak_gops", roofline.peak_gops);
  json.Meta("prof_roofline_probed", roofline.probed ? 1.0 : 0.0);

  const obs::prof::PhaseReport* gather = result.report.FindPhase("gather");
  const obs::prof::PhaseReport* gemm = result.report.FindPhase("gemm");
  result.gather_memory_bound =
      gather != nullptr && gather->bound == obs::prof::PhaseBound::kMemory;
  result.gemm_compute_bound =
      gemm != nullptr && gemm->bound == obs::prof::PhaseBound::kCompute;
  result.gemm_within_roof =
      gemm != nullptr && gemm->roof_pct <= kMaxGemmRoofPct;
  json.Meta("gather_memory_bound", result.gather_memory_bound);
  json.Meta("gemm_compute_bound", result.gemm_compute_bound);
  json.Meta("gemm_within_roof", result.gemm_within_roof);
  return result;
}

/// The section's hard verdicts: prints a FAIL line and returns false when
/// one does not hold.
inline bool ProfSectionPassed(const ProfSectionResult& section) {
  if (!section.gather_memory_bound || !section.gemm_compute_bound) {
    std::printf("FAIL: roofline classification inverted (gather %s, gemm "
                "%s); expected gather memory-bound and batched GEMM "
                "compute-bound on every host\n",
                section.gather_memory_bound ? "memory-bound"
                                            : "NOT memory-bound",
                section.gemm_compute_bound ? "compute-bound"
                                           : "NOT compute-bound");
    return false;
  }
  if (!section.gemm_within_roof) {
    const obs::prof::PhaseReport* gemm = section.report.FindPhase("gemm");
    std::printf("FAIL: gemm phase at %.1f%% of the probed FMA roof (%.1f "
                "GOP/s), above the %.0f%% bound; the FMA probe reads low\n",
                gemm != nullptr ? gemm->roof_pct : 0.0,
                section.report.roofline.peak_gops, kMaxGemmRoofPct);
    return false;
  }
  return true;
}

}  // namespace microrec::bench
