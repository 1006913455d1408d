// sim-fleet and sim-accel: the simulator's own wall-clock speed.
//
//   sim-fleet  the default sched::RunChaosSweep grid (3 fault intensities x
//              7 policies, 30k Poisson queries at 500k q/s per point, 10%
//              large) at min(nproc, 4) threads.
//   sim-accel  the update-rate grid on the SmallProductionModel plan
//              (MicroRecEngine::Build, materialize = false): 8 update rates
//              x 2 write policies, SimulateServingWithUpdates on 20k
//              Poisson arrivals at 200k q/s per point, on
//              exec::ParallelRunner at min(nproc, 4) threads.
//
// A run repeats whole sweeps; an operation is one sweep point. The call
// into the public entry point that latency_p50_us times is the whole
// RunChaosSweep on sim-fleet and one SimulateServingWithUpdates point on
// sim-accel. Simulated latencies are model outputs: they enter only as per-point report digests, which must equal
// the digests recorded at the seed commit (for kRecordedSeed) or those of
// a serial run of the same sweep (any other seed).
//
// The traced run re-runs each grid point from the same public building
// blocks RunChaosSweep uses (BuildStandardFleet, WrapFleetWithFaults,
// SimulateFaultTolerantServing, EvaluateRecovery) with one span per call,
// and requires the re-run to reproduce the public sweep's digests.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "core/microrec.hpp"
#include "exec/parallel.hpp"
#include "recorded_digests.hpp"
#include "sched/chaos.hpp"
#include "sched/fault_model.hpp"
#include "sched/fleet.hpp"
#include "sched/policy.hpp"
#include "serving/serving_sim.hpp"
#include "update/serving_update_sim.hpp"
#include "workload/model_zoo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using microrec::Nanoseconds;
using microrec::exec::ParallelRunner;
namespace sched = microrec::sched;

/// Per-point report digests of one sweep, plus sweep-level checks.
struct SweepOutcome {
  std::vector<std::uint64_t> digests;
  /// Wall time (s) of each call the sweep made into the public entry
  /// point; empty when the sweep itself is that call (sim-fleet).
  std::vector<double> call_wall_s;
  bool headline_ok = true;  ///< sim-fleet: RunChaosSweep's headline_win
};

// ------------------------------------------------------------- sim-fleet

struct FleetInputs {
  sched::ChaosSweepConfig config;
  Nanoseconds span_ns = 0.0;
  std::vector<double> intensities;
  std::vector<sched::SchedQuery> stream;
  std::vector<sched::ChaosScenario> scenarios;
  double load_gen_ms = 0.0;
};

/// The fleet every grid point serves on (RunChaosSweep's FleetConfig).
sched::FleetConfig FleetFor(const FleetInputs& in) {
  sched::FleetConfig fleet;
  fleet.seed = in.config.seed;
  fleet.horizon_ns = in.span_ns;
  fleet.lookups_per_item = in.config.sizes.lookups_per_item;
  return fleet;
}

sched::ChaosSweepConfig FleetConfig(std::uint64_t seed) {
  sched::ChaosSweepConfig config;  // the default grid
  config.seed = ParallelRunner::SubSeed(seed, 1);
  config.fault_seed = ParallelRunner::SubSeed(seed, 2);
  return config;
}

/// The inputs RunChaosSweep derives before its grid: the shared Poisson
/// stream and one fault scenario per intensity. Set-up also builds the
/// faulted fleet once, so a slower fleet build shows in setup_s too.
FleetInputs SetUpFleet(std::uint64_t seed) {
  FleetInputs in;
  in.config = FleetConfig(seed);
  const auto& c = in.config;
  in.span_ns = static_cast<double>(c.queries) / c.qps * 1e9;
  for (std::size_t i = 0; i < c.intensity_points; ++i) {
    in.intensities.push_back(
        c.intensity_points == 1
            ? c.intensity_max
            : c.intensity_max * static_cast<double>(i) /
                  static_cast<double>(c.intensity_points - 1));
  }
  sched::LoadGenConfig load;
  load.process = sched::ArrivalProcess::kPoisson;
  load.rate_qps = c.qps;
  load.num_queries = c.queries;
  load.seed = c.seed;
  load.sizes = c.sizes;
  const auto t0 = Clock::now();
  in.stream = sched::GenerateLoad(load);
  in.load_gen_ms = SecondsBetween(t0, Clock::now()) * 1e3;
  for (double s : in.intensities) {
    in.scenarios.push_back(
        sched::BuildChaosScenario(s, c.fault_seed, in.span_ns));
  }
  // Build the faulted fleet once, as every grid point will.
  const auto fleet = sched::WrapFleetWithFaults(
      sched::BuildStandardFleet(FleetFor(in)), in.scenarios.back().schedules);
  return in;
}

std::uint64_t DigestChaosRecord(const sched::ChaosRecord& r) {
  Digest d;
  d.Add(r.intensity);
  d.Add(r.policy);
  const auto& b = r.report.base;
  d.Add(b.policy);
  d.Add(b.serving.queries);
  for (double v : {b.serving.offered_qps, b.serving.achieved_qps,
                   b.serving.p50, b.serving.p95, b.serving.p99,
                   b.serving.max, b.serving.mean,
                   b.serving.sla_violation_rate, b.availability,
                   b.slo.bad_fraction}) {
    d.Add(v);
  }
  for (std::uint64_t v : {b.offered, b.served, b.shed, b.slo.total, b.slo.bad}) {
    d.Add(v);
  }
  for (const auto& u : b.usage) {
    d.Add(u.name);
    d.Add(u.queries);
    d.Add(u.items);
  }
  const auto& f = r.report;
  for (std::uint64_t v :
       {f.timed_out, f.retries, f.hedges, f.hedge_wins,
        f.cancelled_completions, f.breaker_opens, f.breaker_closes,
        f.breaker_sheds, f.forced_admits, f.probe_dispatches,
        f.probes_failed}) {
    d.Add(v);
  }
  d.Add(static_cast<std::uint64_t>(r.recovery.all_recovered));
  d.Add(r.recovery.worst_time_to_recover_ns);
  for (const auto& w : r.recovery.windows) {
    d.Add(w.label);
    d.Add(w.offered_during);
    d.Add(w.good_during);
    d.Add(w.goodput_during);
    d.Add(w.burn_after);
    d.Add(static_cast<std::uint64_t>(w.recovered));
    d.Add(w.time_to_recover_ns);
  }
  return d.value();
}

/// The public entry point: one whole default chaos grid.
SweepOutcome RunFleetSweep(const FleetInputs& in, std::size_t threads) {
  sched::ChaosSweepConfig config = in.config;
  config.threads = threads;
  const sched::ChaosSweepResult result = sched::RunChaosSweep(config);
  SweepOutcome out;
  for (const auto& r : result.records) {
    out.digests.push_back(DigestChaosRecord(r));
  }
  out.headline_ok = result.headline_win;
  return out;
}

std::unique_ptr<sched::SchedulingPolicy> ChaosRoutingPolicy(
    std::size_t policy_index) {
  switch (policy_index) {
    case sched::kChaosStaticFpga:
      return sched::MakeStaticPolicy(sched::kFleetFpga, "static:fpga");
    case sched::kChaosStaticCpu:
      return sched::MakeStaticPolicy(sched::kFleetCpu, "static:cpu");
    case sched::kChaosStaticHotCache:
      return sched::MakeStaticPolicy(sched::kFleetHotCache,
                                     "static:hot_cache");
    case sched::kChaosStaticDegraded:
      return sched::MakeStaticPolicy(sched::kFleetDegraded,
                                     "static:degraded");
    default:
      return sched::MakeQueueDepthPolicy();
  }
}

bool IsFtPoint(std::size_t policy_index) {
  return policy_index == sched::kChaosBreakerRetry ||
         policy_index == sched::kChaosBreakerRetryHedge;
}

/// One grid point through the same building blocks as RunChaosSweep, with
/// a span around each layer call.
sched::ChaosRecord RunFleetPoint(const FleetInputs& in, std::size_t p,
                                 SpanTracer* tracer, std::int64_t parent) {
  ScopedSpan point(tracer, "chaos.point", parent);
  const std::size_t intensity_index = p / sched::kNumChaosPolicies;
  const std::size_t policy_index = p % sched::kNumChaosPolicies;
  const auto& scenario = in.scenarios[intensity_index];
  const auto& c = in.config;

  std::vector<std::unique_ptr<sched::Backend>> fleet;
  {
    ScopedSpan span(tracer, "sched.BuildStandardFleet", point.id());
    fleet = sched::WrapFleetWithFaults(sched::BuildStandardFleet(FleetFor(in)),
                                       scenario.schedules);
  }
  auto policy = ChaosRoutingPolicy(policy_index);
  sched::FtOptions ft;
  if (IsFtPoint(policy_index)) {
    ft = sched::ChaosFtOptions(
        c, /*hedge=*/policy_index == sched::kChaosBreakerRetryHedge);
  } else {
    ft.base.sla_ns = c.sla_ns;
    ft.base.slo_objective = c.slo_objective;
  }
  std::vector<microrec::obs::QueryOutcome> outcomes;
  ft.outcomes = &outcomes;

  sched::ChaosRecord record;
  record.intensity = in.intensities[intensity_index];
  record.policy = sched::ChaosPolicyName(policy_index);
  {
    ScopedSpan span(tracer,
                    IsFtPoint(policy_index)
                        ? "sched.SimulateFaultTolerantServing:ft"
                        : "sched.SimulateFaultTolerantServing:static",
                    point.id());
    record.report =
        sched::SimulateFaultTolerantServing(in.stream, fleet, *policy, ft);
  }
  {
    ScopedSpan span(tracer, "obs.EvaluateRecovery", point.id());
    microrec::obs::RecoveryOptions recovery;
    recovery.sla_ns = c.sla_ns;
    recovery.objective = c.slo_objective;
    recovery.recovery_window_ns = 0.05 * in.span_ns;
    record.recovery = microrec::obs::EvaluateRecovery(
        recovery, outcomes, scenario.windows,
        &record.report.hedge_win_arrival_ns);
  }
  return record;
}

std::vector<sched::ChaosRecord> RunFleetTraced(const FleetInputs& in,
                                               std::size_t threads,
                                               SpanTracer* tracer) {
  ScopedSpan sweep(tracer, "sweep");
  ParallelRunner runner(microrec::exec::ExecConfig::WithThreads(threads));
  return runner.Map(in.intensities.size() * sched::kNumChaosPolicies,
                    [&](std::size_t p) {
                      return RunFleetPoint(in, p, tracer, sweep.id());
                    });
}

// ------------------------------------------------------------- sim-accel

struct AccelPoint {
  double update_qps = 0.0;
  microrec::WritePolicy policy = microrec::WritePolicy::kFairInterleave;
};

struct AccelInputs {
  microrec::RecModelSpec model;
  microrec::EngineOptions options;
  std::optional<microrec::MicroRecEngine> engine;
  std::vector<Nanoseconds> arrivals;
  std::vector<AccelPoint> points;
  std::uint64_t delta_seed = 0;
  double engine_build_ms = 0.0;
  double arrivals_ms = 0.0;
};

constexpr double kAccelQueryQps = 200'000.0;
constexpr std::uint64_t kAccelQueries = 20'000;
constexpr double kAccelUpdateRates[] = {0.0, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 2e7};
constexpr microrec::WritePolicy kAccelPolicies[] = {
    microrec::WritePolicy::kFairInterleave,
    microrec::WritePolicy::kUpdatesYield};

AccelInputs SetUpAccel(std::uint64_t seed) {
  AccelInputs in;
  in.model = microrec::SmallProductionModel();
  in.options.materialize = false;
  const auto t0 = Clock::now();
  in.engine.emplace(
      microrec::MicroRecEngine::Build(in.model, in.options).value());
  const auto t1 = Clock::now();
  in.arrivals = microrec::PoissonArrivals(kAccelQueryQps, kAccelQueries,
                                          ParallelRunner::SubSeed(seed, 1));
  in.engine_build_ms = SecondsBetween(t0, t1) * 1e3;
  in.arrivals_ms = SecondsBetween(t1, Clock::now()) * 1e3;
  in.delta_seed = ParallelRunner::SubSeed(seed, 2);
  for (double rate : kAccelUpdateRates) {
    for (auto policy : kAccelPolicies) {
      in.points.push_back(AccelPoint{rate, policy});
    }
  }
  return in;
}

std::uint64_t DigestUpdateReport(const microrec::UpdateServingReport& r) {
  Digest d;
  const auto& s = r.serving;
  d.Add(s.queries);
  for (double v : {s.offered_qps, s.achieved_qps, s.p50, s.p95, s.p99, s.max,
                   s.mean, s.sla_violation_rate, r.update_row_qps,
                   r.staleness_p50, r.staleness_p95, r.staleness_p99,
                   r.staleness_max, r.staleness_mean, r.interference_mean,
                   r.interference_max, r.migration_cost_ns}) {
    d.Add(v);
  }
  for (std::uint64_t v :
       {r.update_batches, r.update_rows, r.publishes,
        static_cast<std::uint64_t>(r.update_bytes_written), r.delayed_queries,
        r.migrations, static_cast<std::uint64_t>(r.migrated_bytes)}) {
    d.Add(v);
  }
  return d.value();
}

/// One sim-accel sweep. Each point is one call into the public entry point
/// SimulateServingWithUpdates and is timed on its own; with a tracer it
/// also gets a span, named by whether the point carries update writes.
/// `reports`, when non-null, receives the per-point reports.
SweepOutcome RunAccelSweep(
    const AccelInputs& in, std::size_t threads, SpanTracer* tracer,
    std::vector<microrec::UpdateServingReport>* reports = nullptr) {
  ScopedSpan sweep(tracer, "sweep");
  SweepOutcome out;
  out.call_wall_s.resize(in.points.size());
  ParallelRunner runner(microrec::exec::ExecConfig::WithThreads(threads));
  auto results = runner.Map(in.points.size(), [&](std::size_t p) {
    const AccelPoint& point = in.points[p];
    ScopedSpan span(tracer,
                    point.update_qps > 0.0
                        ? "update.SimulateServingWithUpdates:writes"
                        : "update.SimulateServingWithUpdates:read_only",
                    sweep.id());
    microrec::UpdateServingConfig config;
    config.item_latency_ns = in.engine->timing().item_latency_ns;
    config.initiation_interval_ns =
        in.engine->timing().initiation_interval_ns;
    config.deltas.update_row_qps = point.update_qps;
    config.deltas.seed = in.delta_seed;
    config.policy = point.policy;
    const auto t0 = Clock::now();
    auto report = microrec::SimulateServingWithUpdates(
        in.model, in.engine->plan(), in.options.platform, in.arrivals, config);
    out.call_wall_s[p] = SecondsBetween(t0, Clock::now());
    return report;
  });
  for (const auto& r : results) out.digests.push_back(DigestUpdateReport(r));
  if (reports != nullptr) *reports = std::move(results);
  return out;
}

// ------------------------------------------------------------- shared

/// How a workload's grid is run and checked.
struct SimCase {
  std::size_t points = 0;
  std::uint64_t queries_per_point = 0;
  const std::vector<std::uint64_t>& recorded;  ///< digests for kRecordedSeed
};

/// Points whose digest differs from `expected`, plus one per failed
/// sweep-level check.
std::uint64_t CountFailures(const SweepOutcome& got,
                            const std::vector<std::uint64_t>& expected) {
  std::uint64_t failed = got.headline_ok ? 0 : 1;
  for (std::size_t p = 0; p < got.digests.size(); ++p) {
    if (p >= expected.size() || got.digests[p] != expected[p]) ++failed;
  }
  if (got.digests.size() != expected.size()) ++failed;
  return failed;
}

struct SweepLoop {
  std::vector<double> wall_s;
  std::vector<SweepOutcome> outcomes;
  double total_s = 0.0;
};

/// Repeats `sweep()` until `seconds` have passed (at least once).
template <typename Fn>
SweepLoop RepeatSweeps(double seconds, Fn&& sweep) {
  SweepLoop loop;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    loop.outcomes.push_back(sweep());
    loop.wall_s.push_back(SecondsBetween(t0, Clock::now()));
    loop.total_s = SecondsBetween(start, Clock::now());
  } while (loop.total_s < seconds);
  return loop;
}

/// The digests every sweep of this run must reproduce: recorded at the
/// seed commit for kRecordedSeed, otherwise those of a serial run.
template <typename SerialFn>
std::vector<std::uint64_t> ExpectedDigests(const SimCase& sc,
                                           std::uint64_t seed,
                                           SerialFn&& serial,
                                           RunResult& r) {
  if (seed == kRecordedSeed) {
    r.details.push_back("expected digests: recorded at the seed commit");
    return sc.recorded;
  }
  r.details.push_back("expected digests: serial run of the same sweep");
  SweepOutcome s = serial();
  if (!s.headline_ok) {
    ++r.failed;
    r.checks_passed = false;
  }
  return s.digests;
}

template <typename SetupFn, typename SweepFn>
RunResult RunSimTimed(const RunOptions& o, const SimCase& sc, int setup_repeats,
                      SetupFn&& setup, SweepFn&& sweep) {
  RunResult r;
  const double setup_s = MedianSetupSeconds(setup_repeats, setup);
  const double setup_rss_mb = PeakRssMiB();
  const std::size_t threads = WorkloadThreads();
  const SweepLoop loop =
      RepeatSweeps(o.seconds, [&] { return sweep(threads); });
  const auto expected =
      ExpectedDigests(sc, o.seed, [&] { return sweep(1); }, r);
  for (const SweepOutcome& out : loop.outcomes) {
    r.failed += CountFailures(out, expected);
  }
  r.attempted = loop.outcomes.size() * sc.points;
  r.checks_passed = r.checks_passed && r.failed == 0;
  const double simulated =
      static_cast<double>(r.attempted) * static_cast<double>(sc.queries_per_point);
  r.metrics["setup_s"] = setup_s;
  r.metrics["qps"] = simulated / loop.total_s;
  std::vector<double> call_us;
  for (std::size_t i = 0; i < loop.outcomes.size(); ++i) {
    const auto& calls = loop.outcomes[i].call_wall_s;
    if (calls.empty()) call_us.push_back(loop.wall_s[i] * 1e6);
    for (double c : calls) call_us.push_back(c * 1e6);
  }
  r.metrics["latency_p50_us"] = Median(call_us);
  r.metrics["setup_peak_rss_mb"] = setup_rss_mb;
  r.details.push_back(Fmt("peak RSS over the whole run: %.1f MiB", PeakRssMiB()));
  r.details.push_back(Fmt("sweeps timed: %.0f at %.0f threads, %.0f points "
                          "each",
                          static_cast<double>(loop.outcomes.size()),
                          static_cast<double>(threads),
                          static_cast<double>(sc.points)));
  for (double q : {0.9, 0.99}) r.details.push_back(DescribeTail(call_us, q));
  return r;
}

/// Spans named `name` that started inside [from, to).
std::vector<double> SpanMs(const SpanTracer& tracer, const std::string& name,
                           std::int64_t from, std::int64_t to) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (name == s.name && s.start_ns >= from && s.start_ns < to) {
      out.push_back(s.duration_ms());
    }
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// The traced run shared by both simulator workloads:
///   1. serial public sweep (untraced): the expected digests and the
///      serial wall time;
///   2. threaded public sweeps (untraced) for a third of the time;
///   3. one serial traced sweep: per-layer spans and the straggler ratio;
///   4. threaded traced sweeps for a third of the time: tracing overhead.
/// `traced(threads)` runs steps 3/4 and returns the outcome; `point_spans`
/// name the per-point spans the straggler ratio is taken over, and
/// [serial_from, serial_to) receives the serial traced sweep's time range.
template <typename PublicFn, typename TracedFn>
RunResult RunSimTracedCommon(const RunOptions& o, const SimCase& sc,
                             SpanTracer& tracer, PublicFn&& public_sweep,
                             TracedFn&& traced,
                             const std::vector<const char*>& point_spans,
                             std::int64_t& serial_from,
                             std::int64_t& serial_to) {
  RunResult r;
  const std::size_t threads = WorkloadThreads();
  const double phase_s = o.seconds / 3.0;

  const auto t0 = Clock::now();
  const SweepOutcome serial = public_sweep(1);
  const double serial_s = SecondsBetween(t0, Clock::now());
  std::vector<std::uint64_t> expected = serial.digests;
  if (o.seed == kRecordedSeed) {
    r.failed += CountFailures(serial, sc.recorded);
    expected = sc.recorded;
  } else if (!serial.headline_ok) {
    ++r.failed;
  }
  std::uint64_t sweeps = 1;

  const SweepLoop plain = RepeatSweeps(phase_s, [&] { return public_sweep(threads); });
  for (const auto& out : plain.outcomes) r.failed += CountFailures(out, expected);
  sweeps += plain.outcomes.size();

  serial_from = tracer.Now();
  r.failed += CountFailures(traced(1), expected);
  serial_to = tracer.Now();
  ++sweeps;

  const SweepLoop with_spans = RepeatSweeps(phase_s, [&] { return traced(threads); });
  for (const auto& out : with_spans.outcomes) {
    r.failed += CountFailures(out, expected);
  }
  sweeps += with_spans.outcomes.size();

  const double qps_plain = plain.outcomes.size() / plain.total_s;
  const double qps_traced = with_spans.outcomes.size() / with_spans.total_s;
  r.metrics["trace.overhead_pct"] = (qps_plain / qps_traced - 1.0) * 100.0;
  r.metrics["exec.parallel_efficiency"] =
      serial_s / (static_cast<double>(threads) * Median(plain.wall_s));
  std::vector<double> point_ms;
  for (const char* name : point_spans) {
    const auto v = SpanMs(tracer, name, serial_from, serial_to);
    point_ms.insert(point_ms.end(), v.begin(), v.end());
  }
  const double mean_point = point_ms.empty() ? 0.0 : Sum(point_ms) / point_ms.size();
  r.metrics["exec.straggler_ratio"] =
      mean_point > 0.0
          ? *std::max_element(point_ms.begin(), point_ms.end()) / mean_point
          : 0.0;
  r.metrics["process.peak_rss_mb"] = PeakRssMiB();
  r.attempted = sweeps * sc.points;
  r.checks_passed = r.failed == 0;
  r.details.push_back(Fmt("serial sweep %.3f s, threaded sweep median %.3f s "
                          "at %.0f threads",
                          serial_s, Median(plain.wall_s),
                          static_cast<double>(threads)));
  return r;
}

RunResult RunFleet(const RunOptions& o, SpanTracer* tracer) {
  const SimCase sc{sched::kNumChaosPolicies * 3, FleetConfig(o.seed).queries,
                   kSimFleetDigests};
  FleetInputs in;
  if (tracer == nullptr) {
    return RunSimTimed(
        o, sc, /*setup_repeats=*/7, [&] { in = SetUpFleet(o.seed); },
        [&](std::size_t threads) { return RunFleetSweep(in, threads); });
  }
  in = SetUpFleet(o.seed);
  std::vector<sched::ChaosRecord> serial_records;
  std::int64_t from = 0, to = 0;
  RunResult r = RunSimTracedCommon(
      o, sc, *tracer,
      [&](std::size_t threads) { return RunFleetSweep(in, threads); },
      [&](std::size_t threads) {
        auto records = RunFleetTraced(in, threads, tracer);
        SweepOutcome out;
        for (const auto& rec : records) {
          out.digests.push_back(DigestChaosRecord(rec));
        }
        if (threads == 1) serial_records = std::move(records);
        return out;
      },
      {"chaos.point"}, from, to);

  std::uint64_t served = 0, cancelled = 0, retries = 0, hedges = 0;
  for (const auto& rec : serial_records) {
    served += rec.report.base.served;
    cancelled += rec.report.cancelled_completions;
    retries += rec.report.retries;
    hedges += rec.report.hedges;
  }
  r.metrics["sched.load_gen_ms"] = in.load_gen_ms;
  r.metrics["sched.fleet_build_ms"] =
      Median(SpanMs(*tracer, "sched.BuildStandardFleet", from, to));
  r.metrics["sched.loop_ms.static"] = Median(
      SpanMs(*tracer, "sched.SimulateFaultTolerantServing:static", from, to));
  r.metrics["sched.loop_ms.ft"] = Median(
      SpanMs(*tracer, "sched.SimulateFaultTolerantServing:ft", from, to));
  r.metrics["obs.recovery_ms"] =
      Median(SpanMs(*tracer, "obs.EvaluateRecovery", from, to));
  r.metrics["sched.cancelled_frac"] =
      served + cancelled > 0
          ? static_cast<double>(cancelled) / static_cast<double>(served + cancelled)
          : 0.0;
  r.metrics["sched.retries"] = static_cast<double>(retries);
  r.metrics["sched.hedges"] = static_cast<double>(hedges);
  return r;
}

RunResult RunAccel(const RunOptions& o, SpanTracer* tracer) {
  const SimCase sc{std::size(kAccelUpdateRates) * std::size(kAccelPolicies),
                   kAccelQueries, kSimAccelDigests};
  AccelInputs in;
  if (tracer == nullptr) {
    return RunSimTimed(
        o, sc, /*setup_repeats=*/5,
        [&] { in = SetUpAccel(o.seed); },
        [&](std::size_t threads) {
          return RunAccelSweep(in, threads, nullptr);
        });
  }
  in = SetUpAccel(o.seed);
  std::vector<microrec::UpdateServingReport> serial_reports;
  std::int64_t from = 0, to = 0;
  RunResult r = RunSimTracedCommon(
      o, sc, *tracer,
      [&](std::size_t threads) {
        return RunAccelSweep(in, threads, nullptr);
      },
      [&](std::size_t threads) {
        return RunAccelSweep(in, threads, tracer,
                             threads == 1 ? &serial_reports : nullptr);
      },
      {"update.SimulateServingWithUpdates:read_only",
       "update.SimulateServingWithUpdates:writes"},
      from, to);

  double queries = 0.0, delayed = 0.0, rows = 0.0;
  for (const auto& rep : serial_reports) {
    queries += static_cast<double>(rep.serving.queries);
    delayed += static_cast<double>(rep.delayed_queries);
    rows += static_cast<double>(rep.update_rows);
  }
  r.metrics["core.engine_build_ms"] = in.engine_build_ms;
  r.metrics["workload.query_gen_ms"] = in.arrivals_ms;
  r.metrics["update.point_ms.read_only"] = Median(SpanMs(
      *tracer, "update.SimulateServingWithUpdates:read_only", from, to));
  r.metrics["update.point_ms.writes"] = Median(
      SpanMs(*tracer, "update.SimulateServingWithUpdates:writes", from, to));
  r.metrics["update.delayed_frac"] = queries > 0.0 ? delayed / queries : 0.0;
  r.metrics["update.rows_per_query"] = queries > 0.0 ? rows / queries : 0.0;
  return r;
}

}  // namespace

RunResult RunSimWorkload(const RunOptions& options, SpanTracer* tracer) {
  return options.workload == "sim-fleet" ? RunFleet(options, tracer)
                                         : RunAccel(options, tracer);
}

std::vector<std::uint64_t> SerialSimDigests(const std::string& workload,
                                            std::uint64_t seed) {
  if (workload == "sim-fleet") return RunFleetSweep(SetUpFleet(seed), 1).digests;
  return RunAccelSweep(SetUpAccel(seed), 1, nullptr).digests;
}

std::uint64_t SimInputDigest(const std::string& workload, std::uint64_t seed) {
  Digest d;
  if (workload == "sim-fleet") {
    const FleetInputs in = SetUpFleet(seed);
    d.Add(in.config.seed);
    d.Add(in.config.fault_seed);
    for (const auto& q : in.stream) {
      d.Add(q.arrival_ns);
      d.Add(q.items);
    }
  } else {
    d.Add(ParallelRunner::SubSeed(seed, 2));
    for (Nanoseconds t : microrec::PoissonArrivals(
             kAccelQueryQps, kAccelQueries, ParallelRunner::SubSeed(seed, 1))) {
      d.Add(t);
    }
  }
  return d.value();
}

}  // namespace perfbench
