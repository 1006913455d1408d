// engine-batch and engine-online: closed loops with one caller against the
// measured CPU engine.
//
//   engine-batch   InferBatch at batch 256 on PooledCpuGateModel (8 tables x
//                  80 lookups x dim 64, 2^16 rows each: 128 MiB of rows),
//                  uniform indices, pool at min(nproc, 4) threads.
//   engine-online  InferOne on SmallProductionModel (47 tables x 1 lookup,
//                  352-dim feature, hidden {1024, 512, 256}), rows capped
//                  at 2^16, Zipf(0.9) indices, one thread.
//
// Inputs are generated before timing and cycled. Every distinct input is
// first scored by the frozen InferBatchReference path and by the engine
// under test; the two must agree within 4 ULP (the contract bench_wallclock
// uses). Each timed call's output is then digested and, after the timed
// region, compared bit for bit with the validated output of its input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "cpu/cpu_engine.hpp"
#include "exec/parallel.hpp"
#include "nn/mlp.hpp"
#include "tensor/gather.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using microrec::CpuEngine;
using microrec::IndexDistribution;
using microrec::InferenceScratch;
using microrec::MatrixF;
using microrec::RecModelSpec;
using microrec::SparseQuery;

/// Physical rows per materialized table: 2^16 keeps the gather's wrap a
/// mask and engine-batch's tables at 128 MiB, far above the LLC.
constexpr std::uint64_t kMaxPhysicalRows = 1ull << 16;

/// Set-ups per timed run; setup_s is their median.
constexpr int kSetupRepeats = 5;

struct EngineCase {
  RecModelSpec model;
  IndexDistribution distribution = IndexDistribution::kUniform;
  std::size_t threads = 1;
  std::size_t batch = 0;   ///< queries per InferBatch; 0 = InferOne
  std::size_t inputs = 0;  ///< distinct pre-generated queries
};

EngineCase MakeCase(const std::string& workload, std::uint64_t seed) {
  EngineCase c;
  if (workload == "engine-batch") {
    c.model = microrec::PooledCpuGateModel();
    c.distribution = IndexDistribution::kUniform;
    c.threads = WorkloadThreads();
    c.batch = 256;
    c.inputs = 8 * c.batch;
  } else {
    c.model = microrec::SmallProductionModel();
    c.distribution = IndexDistribution::kZipf;
    c.threads = 1;
    c.batch = 0;
    c.inputs = 4096;
  }
  // Table contents and MLP weights derive from the model seed.
  c.model.seed = microrec::exec::ParallelRunner::SubSeed(seed, 0);
  return c;
}

std::vector<SparseQuery> GenerateQueries(const EngineCase& c,
                                         std::uint64_t seed) {
  microrec::QueryGenerator gen(
      c.model, c.distribution,
      microrec::exec::ParallelRunner::SubSeed(seed, 1), /*theta=*/0.9);
  return gen.NextBatch(c.inputs);
}

struct EngineSetup {
  std::unique_ptr<CpuEngine> engine;
  std::vector<SparseQuery> queries;
  double build_ms = 0.0;
  double query_gen_ms = 0.0;
};

EngineSetup SetUp(const EngineCase& c, std::uint64_t seed,
                  std::size_t threads) {
  EngineSetup s;
  const auto t0 = Clock::now();
  s.engine = std::make_unique<CpuEngine>(
      c.model, kMaxPhysicalRows, microrec::FrameworkOverheadParams{},
      threads);
  const auto t1 = Clock::now();
  s.queries = GenerateQueries(c, seed);
  const auto t2 = Clock::now();
  s.build_ms = SecondsBetween(t0, t1) * 1e3;
  s.query_gen_ms = SecondsBetween(t1, t2) * 1e3;
  return s;
}

/// |a-b| <= 4 ULP at float scale for every element.
bool MatchesWithinUlps(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    const float scale = std::max(std::abs(a[i]), std::abs(b[i]));
    if (std::abs(a[i] - b[i]) > 4.0f * scale * 1.1920929e-7f) return false;
  }
  return true;
}

/// One call into the engine: InferBatch over an input slice, or InferOne.
class EngineCaller {
 public:
  EngineCaller(const EngineCase& c, const CpuEngine& engine,
               const std::vector<SparseQuery>& queries)
      : c_(c), engine_(engine), queries_(queries) {
    engine_.ReserveScratch(scratch_, std::max<std::size_t>(c.batch, 1));
  }

  /// Distinct inputs the calls cycle through.
  std::size_t slices() const {
    return c_.batch == 0 ? queries_.size() : queries_.size() / c_.batch;
  }
  std::size_t queries_per_call() const { return std::max<std::size_t>(c_.batch, 1); }

  std::span<const SparseQuery> Slice(std::size_t call) const {
    const std::size_t s = call % slices();
    const std::size_t n = queries_per_call();
    return std::span<const SparseQuery>(queries_).subspan(s * n, n);
  }

  /// The timed call; the returned view is valid until the next call.
  std::span<const float> Call(std::size_t call) {
    if (c_.batch == 0) {
      one_ = engine_.InferOne(queries_[call % queries_.size()], scratch_);
      return {&one_, 1};
    }
    return engine_.InferBatch(Slice(call), scratch_);
  }

 private:
  const EngineCase& c_;
  const CpuEngine& engine_;
  const std::vector<SparseQuery>& queries_;
  InferenceScratch scratch_;
  float one_ = 0.0f;
};

/// Validated output digest per distinct input.
struct Expected {
  std::vector<std::uint64_t> digests;
  std::vector<bool> matches_reference;
  std::size_t mismatches = 0;
};

Expected ValidateAgainstReference(const EngineCase& c, const CpuEngine& engine,
                                  const std::vector<SparseQuery>& queries,
                                  EngineCaller& caller) {
  Expected e;
  const std::size_t slices = caller.slices();
  e.digests.resize(slices);
  e.matches_reference.resize(slices);
  // InferOne is checked against one batched reference pass over every
  // query; InferBatch against the reference on the same slice.
  std::vector<float> reference_all;
  if (c.batch == 0) reference_all = engine.InferBatchReference(queries);
  for (std::size_t s = 0; s < slices; ++s) {
    const std::span<const float> out = caller.Call(s);
    bool ok = false;
    if (c.batch == 0) {
      ok = MatchesWithinUlps(out, std::span<const float>(&reference_all[s], 1));
    } else {
      ok = MatchesWithinUlps(out, engine.InferBatchReference(caller.Slice(s)));
    }
    e.digests[s] = DigestFloats(out);
    e.matches_reference[s] = ok;
    if (!ok) ++e.mismatches;
  }
  return e;
}

struct LoopStats {
  std::size_t calls = 0;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocations = 0;  ///< heap allocations during the loop
  double wall_s = 0.0;
  std::vector<double> latency_us;

  double qps() const { return wall_s > 0.0 ? queries / wall_s : 0.0; }
};

/// Closed loop of timed calls for `seconds`. Output digests are taken
/// outside each call's latency sample and compared after the loop.
LoopStats RunClosedLoop(EngineCaller& caller, const Expected& expected,
                        double seconds, SpanTracer* tracer) {
  LoopStats stats;
  std::vector<std::uint64_t> digests;
  const auto reserve = static_cast<std::size_t>(seconds * 20000.0) + 1024;
  stats.latency_us.reserve(reserve);
  digests.reserve(reserve);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  auto end = start;
  const std::uint64_t allocations_before = AllocationCount();
  while (end < deadline) {
    const std::size_t i = stats.calls;
    std::span<const float> out;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "CpuEngine::Infer");
      out = caller.Call(i);
    }
    end = Clock::now();
    stats.latency_us.push_back(SecondsBetween(t0, end) * 1e6);
    digests.push_back(DigestFloats(out));
    ++stats.calls;
  }
  stats.allocations = AllocationCount() - allocations_before;
  stats.wall_s = SecondsBetween(start, end);
  stats.queries = stats.calls * caller.queries_per_call();
  for (std::size_t i = 0; i < stats.calls; ++i) {
    const std::size_t s = i % caller.slices();
    if (digests[i] != expected.digests[s] || !expected.matches_reference[s]) {
      ++stats.failed;
    }
  }
  return stats;
}

void AddLatencyDetails(const LoopStats& loop, RunResult& r) {
  r.details.push_back(Fmt("calls timed: %.0f, latency p50 %.2f us",
                          static_cast<double>(loop.calls),
                          Median(loop.latency_us)));
  for (double q : {0.99, 0.999}) {
    r.details.push_back(DescribeTail(loop.latency_us, q));
  }
}

/// Row bytes one call's gather must read, from the table specs.
double GatherBytesPerQuery(const RecModelSpec& model) {
  double bytes = 0.0;
  for (const auto& t : model.tables) {
    bytes += static_cast<double>(
        microrec::GatherBytes(model.lookups_per_table, t.dim));
  }
  return bytes;
}

/// 2 * sum(M * N * K) of one MLP forward over `batch` rows, head included.
double MlpFlopsPerCall(const RecModelSpec& model, std::size_t batch) {
  double macs = 0.0;
  for (std::size_t i = 0; i < model.mlp.hidden.size(); ++i) {
    macs += static_cast<double>(model.mlp.LayerMacs(i));
  }
  macs += model.mlp.hidden.empty() ? model.mlp.input_dim
                                   : model.mlp.hidden.back();
  return 2.0 * macs * static_cast<double>(batch);
}

RunResult RunTimed(const EngineCase& c, const RunOptions& o) {
  RunResult r;
  EngineSetup s;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    s.engine.reset();  // never hold two copies of the tables
    s = SetUp(c, o.seed, c.threads);
  });
  const double setup_rss_mb = PeakRssMiB();
  EngineCaller caller(c, *s.engine, s.queries);
  const Expected expected =
      ValidateAgainstReference(c, *s.engine, s.queries, caller);
  const LoopStats loop = RunClosedLoop(caller, expected, o.seconds, nullptr);

  r.attempted = loop.calls;
  r.failed = loop.failed;
  r.checks_passed = loop.failed == 0 && expected.mismatches == 0;
  r.metrics["setup_s"] = setup_s;
  r.metrics["qps"] = loop.qps();
  r.metrics["latency_p50_us"] = Median(loop.latency_us);
  r.metrics["setup_peak_rss_mb"] = setup_rss_mb;
  r.details.push_back(Fmt("peak RSS over the whole run: %.1f MiB", PeakRssMiB()));
  r.details.push_back(Fmt("threads %.0f, %.0f distinct inputs validated "
                          "against InferBatchReference (4 ULP), %.0f "
                          "mismatched",
                          static_cast<double>(c.threads),
                          static_cast<double>(caller.slices()),
                          static_cast<double>(expected.mismatches)));
  AddLatencyDetails(loop, r);
  return r;
}

RunResult RunTraced(const EngineCase& c, const RunOptions& o,
                    SpanTracer& tracer) {
  RunResult r;
  EngineSetup s = SetUp(c, o.seed, c.threads);
  const std::size_t per_call = std::max<std::size_t>(c.batch, 1);
  const double phase_s = o.seconds / (c.batch == 0 ? 3.0 : 4.0);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double qps_untraced = 0.0;
  double allocs_per_call = 0.0;
  std::vector<double> infer_us, embedding_us, mlp_us;
  {
    EngineCaller caller(c, *s.engine, s.queries);
    const Expected expected =
        ValidateAgainstReference(c, *s.engine, s.queries, caller);
    failed += expected.mismatches;

    // Untraced: the throughput the traced phases are compared with, and
    // the steady-state allocation count.
    const LoopStats plain = RunClosedLoop(caller, expected, phase_s, nullptr);
    allocs_per_call = static_cast<double>(plain.allocations) /
                      static_cast<double>(std::max<std::size_t>(plain.calls, 1));
    qps_untraced = plain.qps();
    attempted += plain.calls;
    failed += plain.failed;

    // Traced: the same loop with one span per call.
    const LoopStats traced = RunClosedLoop(caller, expected, phase_s, &tracer);
    attempted += traced.calls;
    failed += traced.failed;
    r.metrics["trace.overhead_pct"] =
        traced.qps() > 0.0 ? (qps_untraced / traced.qps() - 1.0) * 100.0 : 0.0;

    // Layer decomposition: on the same input, the whole call, then the
    // embedding layer and the MLP on their own. The MLP output must equal
    // the whole call's output bit for bit.
    MatrixF features;
    microrec::MlpScratch mlp_scratch;
    std::vector<float> probs(per_call);
    const auto deadline = Clock::now() +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(phase_s));
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      ScopedSpan iteration(&tracer, "iteration");
      std::span<const float> out;
      {
        ScopedSpan span(&tracer, "CpuEngine::Infer", iteration.id());
        out = caller.Call(i);
      }
      const std::uint64_t whole = DigestFloats(out);
      {
        ScopedSpan span(&tracer, "CpuEngine::EmbeddingLayer", iteration.id());
        s.engine->EmbeddingLayer(caller.Slice(i), features);
      }
      if (c.batch == 0) {
        ScopedSpan span(&tracer, "MlpModel::ForwardOne", iteration.id());
        probs[0] = s.engine->mlp().ForwardOne(features.row(0), mlp_scratch);
      } else {
        ScopedSpan span(&tracer, "MlpModel::ForwardBatch", iteration.id());
        s.engine->mlp().ForwardBatch(features, mlp_scratch, probs);
      }
      ++attempted;
      const std::size_t slice = i % caller.slices();
      if (whole != expected.digests[slice] ||
          DigestFloats(probs) != expected.digests[slice]) {
        ++failed;
      }
    }
    for (const Span& sp : tracer.spans()) {
      const std::string name = sp.name;
      if (sp.parent < 0) continue;
      if (name == "CpuEngine::Infer") infer_us.push_back(sp.duration_us());
      if (name == "CpuEngine::EmbeddingLayer") {
        embedding_us.push_back(sp.duration_us());
      }
      if (name.rfind("MlpModel::", 0) == 0) mlp_us.push_back(sp.duration_us());
    }
  }

  // Thread scaling: the same workload on a 1-thread engine.
  double thread_scaling = 0.0;
  if (c.batch != 0) {
    s.engine.reset();
    EngineSetup single = SetUp(c, o.seed, 1);
    EngineCaller caller(c, *single.engine, single.queries);
    const Expected expected =
        ValidateAgainstReference(c, *single.engine, single.queries, caller);
    const LoopStats one = RunClosedLoop(caller, expected, phase_s, nullptr);
    attempted += one.calls;
    failed += one.failed + expected.mismatches;
    thread_scaling = one.qps() > 0.0 ? qps_untraced / one.qps() : 0.0;
    r.details.push_back(Fmt("engine-batch qps: %.1f at %.0f threads, %.1f at "
                            "1 thread",
                            qps_untraced, static_cast<double>(c.threads),
                            one.qps()));
  }

  const double emb = Median(embedding_us);
  const double mlp = Median(mlp_us);
  const double gather_bytes = GatherBytesPerQuery(c.model);
  const double mlp_flops = MlpFlopsPerCall(c.model, per_call);
  r.metrics["cpu.embedding_us"] = emb;
  r.metrics["cpu.embedding_gbs"] =
      emb > 0.0 ? gather_bytes * per_call / (emb * 1e3) : 0.0;
  r.metrics["cpu.gather_bytes_per_query"] = gather_bytes;
  r.metrics["nn.mlp_us"] = mlp;
  r.metrics["nn.mlp_gops"] = mlp > 0.0 ? mlp_flops / (mlp * 1e3) : 0.0;
  r.metrics["cpu.glue_us"] = Median(infer_us) - emb - mlp;
  r.metrics["cpu.allocs_per_call"] = allocs_per_call;
  if (c.batch != 0) r.metrics["cpu.thread_scaling"] = thread_scaling;
  r.metrics["cpu.engine_build_ms"] = s.build_ms;
  r.metrics["workload.query_gen_ms"] = s.query_gen_ms;
  r.metrics["process.peak_rss_mb"] = PeakRssMiB();
  r.details.push_back(Fmt("computed, not measured: gather reads %.0f B per "
                          "query (GatherBytes over the table specs); the MLP "
                          "does %.0f flops per call (2*sum(M*N*K))",
                          gather_bytes, mlp_flops));
  r.attempted = attempted;
  r.failed = failed;
  r.checks_passed = failed == 0;
  return r;
}

}  // namespace

RunResult RunEngineWorkload(const RunOptions& options, SpanTracer* tracer) {
  const EngineCase c = MakeCase(options.workload, options.seed);
  return tracer == nullptr ? RunTimed(c, options)
                           : RunTraced(c, options, *tracer);
}

std::uint64_t EngineInputDigest(const std::string& workload,
                                std::uint64_t seed) {
  const EngineCase c = MakeCase(workload, seed);
  Digest d;
  d.Add(c.model.seed);
  for (const SparseQuery& q : GenerateQueries(c, seed)) {
    for (std::uint64_t index : q.indices) d.Add(index);
  }
  return d.value();
}

}  // namespace perfbench
