// Wall-clock throughput benchmarks (perf extension, not a paper table):
//
//   1. The measured CPU inference engine -- queries per wall-second on the
//      pooled embedding-heavy gate model at batch 1/64/256, optimized
//      scratch path (vectorized gather + fused GEMM + zero-alloc arenas)
//      vs the frozen pre-optimization reference path. On an AVX2 host the
//      optimized path must be >= 2x the reference at batch 256 or the
//      bench FAILS (the perf gate also hard-compares the bool).
//
//      It also times batch 256 on a min(hardware, 4)-thread engine beside
//      the 1-thread engine: on a host with >= 4 hardware threads the
//      sharded engine must reach >= 1.5x the 1-thread q/s or the bench
//      FAILS (`cpu_thread_scaling_ge_1p5`, hard-compared).
//
//   2. The parallel experiment engine -- how many simulated queries per
//      wall-second does a fixed update-rate sweep sustain at 1/2/4/8
//      worker threads, and does every thread count reproduce the 1-thread
//      run bit for bit?
//
// All wall-clock numbers are declared volatile for the perf gate
// (structure-checked, not value-compared); the identity and speedup-gate
// booleans are hard-compared.
//
// The workload is the update-sweep grid the CLI runs (rate x policy points
// over a shared Poisson arrival stream); each point is one full
// update-aware serving simulation on its own private memory system, so the
// sweep is embarrassingly parallel and any deviation from linear scaling is
// engine overhead (sharding, futures, merge).
//
// Bit-identity is asserted unconditionally and fails the run: the N-thread
// reports must equal the 1-thread reports field for field (double ==, no
// tolerance). The >= 3x speedup-at-8-threads gate only applies on hosts
// with >= 8 hardware threads -- on smaller machines (including single-core
// CI containers, where threading physically cannot pay) the measured
// numbers are still printed and recorded in BENCH_wallclock.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_prof_util.hpp"
#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "core/microrec.hpp"
#include "cpu/cpu_engine.hpp"
#include "exec/parallel.hpp"
#include "tensor/gemm.hpp"
#include "update/serving_update_sim.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

using namespace microrec;

namespace {

struct SweepPoint {
  double update_qps = 0.0;
  WritePolicy policy = WritePolicy::kFairInterleave;
};

bool SameReport(const UpdateServingReport& a, const UpdateServingReport& b) {
  return a.serving.queries == b.serving.queries &&
         a.serving.p50 == b.serving.p50 && a.serving.p95 == b.serving.p95 &&
         a.serving.p99 == b.serving.p99 && a.serving.max == b.serving.max &&
         a.serving.mean == b.serving.mean &&
         a.serving.achieved_qps == b.serving.achieved_qps &&
         a.staleness_p50 == b.staleness_p50 &&
         a.staleness_p99 == b.staleness_p99 &&
         a.update_batches == b.update_batches &&
         a.update_rows == b.update_rows && a.publishes == b.publishes &&
         a.delayed_queries == b.delayed_queries &&
         a.migrations == b.migrations;
}

}  // namespace

namespace {

/// |a-b| <= 4 ULP at float scale for every element (the FMA contract).
bool MatchesWithinUlps(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    const float scale = std::max(std::abs(a[i]), std::abs(b[i]));
    if (std::abs(a[i] - b[i]) > 4.0f * scale * 1.1920929e-7f) return false;
  }
  return true;
}

struct CpuPoint {
  std::size_t batch = 0;
  double ref_qps = 0.0;
  double opt_qps = 0.0;
  double speedup = 0.0;
  bool match = true;
  double p50_us = 0.0;  ///< optimized-path per-batch wall-clock percentiles
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Per-batch latency distribution of the optimized path: `reps` InferBatch
/// calls recorded through a timer-tier HwProfiler's histogram (the same
/// obs::Histogram the full-system sims use), so the bench reports real
/// p50/p95/p99, not just the median-of-9 throughput number.
void MeasureLatencyPercentiles(CpuEngine& engine,
                               std::span<const SparseQuery> queries,
                               InferenceScratch& scratch, int reps,
                               CpuPoint& p) {
  obs::prof::HwProfiler prof(
      {.backend = obs::prof::ProfBackend::kTimer});
  engine.set_profiler(&prof);
  for (int i = 0; i < reps; ++i) engine.InferBatch(queries, scratch);
  engine.set_profiler(nullptr);
  p.p50_us = prof.batch_latency().Quantile(0.50) / 1e3;
  p.p95_us = prof.batch_latency().Quantile(0.95) / 1e3;
  p.p99_us = prof.batch_latency().Quantile(0.99) / 1e3;
}

/// Batch-256 engine throughput at 1 thread and at `threads` threads.
struct CpuScaling {
  std::size_t threads = 1;
  double qps_1t = 0.0;
  double qps_nt = 0.0;
  bool identical = true;  ///< N-thread outputs equal 1-thread, bit for bit

  double ratio() const { return qps_1t > 0.0 ? qps_nt / qps_1t : 0.0; }
};

Nanoseconds MedianOf(std::vector<Nanoseconds> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times batch 256 on a 1-thread and a `threads`-thread engine over the
/// same tables and inputs. Batches alternate between the two engines, and
/// so does which one goes first, so a slow spell on a shared host hits
/// both alike; each rate is 256 / its median batch time.
CpuScaling MeasureThreadScaling(const RecModelSpec& model,
                                std::size_t threads) {
  constexpr std::size_t kBatch = 256;
  constexpr int kReps = 31;
  const CpuEngine one(model, /*max_physical_rows=*/1ull << 16);
  const CpuEngine many(model, /*max_physical_rows=*/1ull << 16,
                       FrameworkOverheadParams{}, threads);
  QueryGenerator gen(model, IndexDistribution::kUniform, 17);
  const auto queries = gen.NextBatch(kBatch);
  InferenceScratch scratch_one;
  InferenceScratch scratch_many;
  const auto run_one = [&] { one.InferBatch(queries, scratch_one); };
  const auto run_many = [&] { many.InferBatch(queries, scratch_many); };
  std::vector<Nanoseconds> ns_one;
  std::vector<Nanoseconds> ns_many;
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1 warms both up
    const bool one_first = rep % 2 == 0;
    Nanoseconds a = one_first ? bench::TimeOnce(run_one) : 0.0;
    const Nanoseconds b = bench::TimeOnce(run_many);
    if (!one_first) a = bench::TimeOnce(run_one);
    if (rep < 0) continue;
    ns_one.push_back(a);
    ns_many.push_back(b);
  }
  CpuScaling s;
  s.threads = threads;
  s.qps_1t = static_cast<double>(kBatch) / (MedianOf(ns_one) / 1e9);
  s.qps_nt = static_cast<double>(kBatch) / (MedianOf(ns_many) / 1e9);
  s.identical = std::ranges::equal(one.InferBatch(queries, scratch_one),
                                   many.InferBatch(queries, scratch_many));
  return s;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Measured CPU engine: queries per wall-second, optimized vs "
      "pre-optimization reference",
      "perf extension (hardware-fast CPU engine, DESIGN.md s16)");
  const bool avx2 = CpuSupportsAvx2();
  const RecModelSpec cpu_model = PooledCpuGateModel();
  std::printf("model: %s (%zu tables x %u lookups x dim %u, hidden "
              "{512,256,128}), host AVX2+FMA: %s\n",
              cpu_model.name.c_str(), cpu_model.tables.size(),
              cpu_model.lookups_per_table, cpu_model.tables[0].dim,
              avx2 ? "yes" : "no");

  std::vector<CpuPoint> cpu_points;
  bool cpu_match = true;
  double cpu_speedup_256 = 0.0;
  {
    CpuEngine engine(cpu_model, /*max_physical_rows=*/1ull << 16);
    QueryGenerator gen(cpu_model, IndexDistribution::kUniform, 7);
    InferenceScratch scratch;
    TablePrinter cpu_table({"Batch", "Reference q/s", "Optimized q/s",
                            "Speedup", "Match", "p50 us", "p95 us",
                            "p99 us"});
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{64}, std::size_t{256}}) {
      const auto queries = gen.NextBatch(batch);
      engine.ReserveScratch(scratch, batch);
      CpuPoint p;
      p.batch = batch;
      const Nanoseconds ref_ns = bench::TimeMedian(
          9, [&] { engine.InferBatchReference(queries); });
      std::span<const float> probs;
      const Nanoseconds opt_ns = bench::TimeMedian(
          9, [&] { probs = engine.InferBatch(queries, scratch); });
      p.ref_qps = static_cast<double>(batch) / (ref_ns / 1e9);
      p.opt_qps = static_cast<double>(batch) / (opt_ns / 1e9);
      p.speedup = p.ref_qps > 0.0 ? p.opt_qps / p.ref_qps : 0.0;
      p.match = MatchesWithinUlps(engine.InferBatchReference(queries), probs);
      MeasureLatencyPercentiles(engine, queries, scratch, /*reps=*/33, p);
      cpu_match = cpu_match && p.match;
      if (batch == 256) cpu_speedup_256 = p.speedup;
      cpu_table.AddRow({std::to_string(batch),
                        TablePrinter::Sci(p.ref_qps, 2),
                        TablePrinter::Sci(p.opt_qps, 2),
                        TablePrinter::Num(p.speedup, 2) + "x",
                        p.match ? "yes" : "NO",
                        TablePrinter::Num(p.p50_us, 1),
                        TablePrinter::Num(p.p95_us, 1),
                        TablePrinter::Num(p.p99_us, 1)});
      cpu_points.push_back(p);
    }
    cpu_table.Print();
  }

  const CpuScaling scaling = MeasureThreadScaling(
      cpu_model, std::min<std::size_t>(exec::DefaultThreads(), 4));
  {
    TablePrinter scaling_table({"Batch", "Threads", "1-thread q/s",
                                "N-thread q/s", "Scaling", "Bit-identical"});
    scaling_table.AddRow({"256", std::to_string(scaling.threads),
                          TablePrinter::Sci(scaling.qps_1t, 2),
                          TablePrinter::Sci(scaling.qps_nt, 2),
                          TablePrinter::Num(scaling.ratio(), 2) + "x",
                          scaling.identical ? "yes" : "NO"});
    scaling_table.Print();
  }
  cpu_match = cpu_match && scaling.identical;

  bench::PrintHeader(
      "Parallel experiment engine: simulated queries per wall-second",
      "perf extension (deterministic sweep parallelism, DESIGN.md s11)");

  const auto model = SmallProductionModel();
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(model, options).value();

  constexpr double kQueryQps = 200'000.0;
  constexpr std::uint64_t kQueries = 20'000;
  const auto arrivals = PoissonArrivals(kQueryQps, kQueries, 7);

  // 16 points: 8 update rates x 2 policies, the update-sweep CLI's grid at
  // double width so an 8-thread run has two full waves of work.
  std::vector<SweepPoint> points;
  const double rates[] = {0.0, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 2e7};
  for (double rate : rates) {
    for (WritePolicy policy :
         {WritePolicy::kFairInterleave, WritePolicy::kUpdatesYield}) {
      points.push_back(SweepPoint{rate, policy});
    }
  }
  const double simulated_queries =
      static_cast<double>(kQueries) * static_cast<double>(points.size());
  std::printf("workload: %zu sweep points x %llu queries (%.1fM simulated "
              "queries per run), %zu hardware thread(s)\n",
              points.size(), (unsigned long long)kQueries,
              simulated_queries / 1e6, exec::DefaultThreads());

  auto run_sweep = [&](std::size_t threads) {
    exec::ParallelRunner runner(exec::ExecConfig::WithThreads(threads));
    return runner.Map(points.size(), [&](std::size_t p) {
      UpdateServingConfig config;
      config.item_latency_ns = engine.timing().item_latency_ns;
      config.initiation_interval_ns = engine.timing().initiation_interval_ns;
      config.deltas.update_row_qps = points[p].update_qps;
      config.deltas.seed = 11;
      config.policy = points[p].policy;
      return SimulateServingWithUpdates(model, engine.plan(),
                                        options.platform, arrivals, config);
    });
  };

  const std::vector<UpdateServingReport> baseline = run_sweep(1);

  TablePrinter table({"Threads", "Wall (ms)", "Sim queries / wall-s",
                      "Speedup vs 1T", "Bit-identical"});
  bench::JsonReport json("wallclock");
  json.MarkVolatile({"wall_ms", "sim_queries_per_wall_s", "speedup_vs_1t",
                     "ref_qps", "opt_qps", "speedup", "hardware_threads",
                     "opt_p50_us", "opt_p95_us", "opt_p99_us",
                     "cpu_scaling_threads", "cpu_1t_qps", "cpu_nt_qps",
                     "cpu_thread_scaling", "prof_*"});
  json.Meta("sweep_points", static_cast<std::uint64_t>(points.size()));
  json.Meta("queries_per_point", kQueries);
  json.Meta("hardware_threads",
            static_cast<std::uint64_t>(exec::DefaultThreads()));
  json.Meta("cpu_model", cpu_model.name);
  json.Meta("avx2_supported", avx2);
  for (const CpuPoint& p : cpu_points) {
    json.AddRecord({{"cpu_batch", static_cast<std::uint64_t>(p.batch)},
                    {"ref_qps", p.ref_qps},
                    {"opt_qps", p.opt_qps},
                    {"speedup", p.speedup},
                    {"match", p.match},
                    {"opt_p50_us", p.p50_us},
                    {"opt_p95_us", p.p95_us},
                    {"opt_p99_us", p.p99_us}});
  }

  bool all_identical = true;
  double wall_ms_1t = 0.0;
  double speedup_at_8 = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<UpdateServingReport> reports;
    const Nanoseconds wall_ns =
        bench::TimeMedian(3, [&] { reports = run_sweep(threads); });
    bool identical = reports.size() == baseline.size();
    for (std::size_t p = 0; identical && p < reports.size(); ++p) {
      identical = SameReport(reports[p], baseline[p]);
    }
    all_identical = all_identical && identical;

    const double wall_ms = wall_ns / 1e6;
    if (threads == 1) wall_ms_1t = wall_ms;
    const double speedup = wall_ms > 0.0 ? wall_ms_1t / wall_ms : 0.0;
    if (threads == 8) speedup_at_8 = speedup;
    const double qps_wall = simulated_queries / (wall_ns / 1e9);
    table.AddRow({std::to_string(threads), TablePrinter::Num(wall_ms, 1),
                  TablePrinter::Sci(qps_wall, 2),
                  TablePrinter::Num(speedup, 2) + "x",
                  identical ? "yes" : "NO"});
    json.AddRecord({{"threads", static_cast<std::uint64_t>(threads)},
                    {"wall_ms", wall_ms},
                    {"sim_queries_per_wall_s", qps_wall},
                    {"speedup_vs_1t", speedup},
                    {"identical", identical}});
  }
  table.Print();
  json.Meta("all_identical", all_identical);
  json.Meta("cpu_match", cpu_match);
  // The headline claim of the hardware-fast CPU engine work: on an AVX2
  // host the optimized path is >= 2x the frozen pre-optimization path at
  // batch 256. Recorded as a bool so the perf gate enforces it even though
  // the underlying rates are volatile. On non-AVX2 hosts the gate is not
  // applicable and records true (the avx2_supported meta still exposes the
  // host difference to the perf gate).
  const bool cpu_gate = !avx2 || cpu_speedup_256 >= 2.0;
  json.Meta("cpu_speedup_batch256_ge_2", cpu_gate);
  // Sharding a batch over the pool must pay off where there are cores to
  // pay with. 1.5x, not linear: the gather shares the host's memory
  // bandwidth, and a shared host's neighbours take cycles at random.
  json.Meta("cpu_scaling_threads", static_cast<std::uint64_t>(scaling.threads));
  json.Meta("cpu_1t_qps", scaling.qps_1t);
  json.Meta("cpu_nt_qps", scaling.qps_nt);
  json.Meta("cpu_thread_scaling", scaling.ratio());
  const bool scaling_gate =
      exec::DefaultThreads() < 4 || scaling.ratio() >= 1.5;
  json.Meta("cpu_thread_scaling_ge_1p5", scaling_gate);

  // -------------------------------- hardware phase attribution (obs/prof/)
  bench::PrintHeader(
      "Hardware phase attribution: counters + roofline at batch 256",
      "observability extension (hardware profiling layer, DESIGN.md s17)");
  const auto prof_section = bench::RunProfSection(
      json, cpu_model, /*batch=*/256, /*batches=*/24, /*seed=*/13);
  json.WriteFile();

  if (!cpu_match) {
    std::printf("FAIL: optimized CPU path diverged from the reference "
                "path beyond 4 ULP, or a %zu-thread engine from the "
                "1-thread engine\n",
                scaling.threads);
    return 1;
  }
  if (exec::DefaultThreads() >= 4) {
    if (!scaling_gate) {
      std::printf("FAIL: expected >= 1.5x engine q/s at %zu threads vs 1 "
                  "thread on this %zu-thread host, measured %.2fx\n",
                  scaling.threads, exec::DefaultThreads(), scaling.ratio());
      return 1;
    }
    std::printf("engine thread scaling at batch 256: %.2fx at %zu threads "
                "(>= 1.5x gate passed)\n",
                scaling.ratio(), scaling.threads);
  } else {
    std::printf("note: host has %zu hardware thread(s); the >= 1.5x engine "
                "thread-scaling gate needs >= 4 and was not enforced "
                "(measured %.2fx)\n",
                exec::DefaultThreads(), scaling.ratio());
  }
  if (avx2) {
    if (!cpu_gate) {
      std::printf("FAIL: expected >= 2x CPU speedup at batch 256 on this "
                  "AVX2 host, measured %.2fx\n", cpu_speedup_256);
      return 1;
    }
    std::printf("CPU speedup at batch 256: %.2fx (>= 2x gate passed)\n",
                cpu_speedup_256);
  } else {
    std::printf("note: host lacks AVX2; the >= 2x CPU speedup gate was "
                "not enforced (measured %.2fx)\n", cpu_speedup_256);
  }

  if (!bench::ProfSectionPassed(prof_section)) return 1;

  if (!all_identical) {
    std::printf("FAIL: a multi-thread run diverged from the 1-thread "
                "baseline\n");
    return 1;
  }
  bench::PrintNote(
      "every thread count reproduced the serial sweep bit for bit");
  if (exec::DefaultThreads() >= 8) {
    if (speedup_at_8 < 3.0) {
      std::printf("FAIL: expected >= 3x speedup at 8 threads on this "
                  "%zu-thread host, measured %.2fx\n",
                  exec::DefaultThreads(), speedup_at_8);
      return 1;
    }
    std::printf("speedup at 8 threads: %.2fx (>= 3x gate passed)\n",
                speedup_at_8);
  } else {
    std::printf("note: host has %zu hardware thread(s); the >= 3x "
                "speedup-at-8-threads gate needs >= 8 and was not "
                "enforced\n",
                exec::DefaultThreads());
  }
  return 0;
}
