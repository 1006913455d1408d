#include "sched/sweep.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "exec/parallel.hpp"
#include "sched/fleet.hpp"

namespace microrec::sched {

namespace {

constexpr ArrivalProcess kProcesses[kNumProcesses] = {
    ArrivalProcess::kPoisson, ArrivalProcess::kMmpp,
    ArrivalProcess::kFlashCrowd, ArrivalProcess::kDiurnal};

std::unique_ptr<SchedulingPolicy> MakeGridPolicy(
    std::size_t policy_index, const SweepGridConfig& config) {
  switch (policy_index) {
    case kPolicyStaticFpga:
      return MakeStaticPolicy(kFleetFpga, "static:fpga");
    case kPolicyStaticCpu:
      return MakeStaticPolicy(kFleetCpu, "static:cpu");
    case kPolicyStaticHotCache:
      return MakeStaticPolicy(kFleetHotCache, "static:hot_cache");
    case kPolicyStaticDegraded:
      return MakeStaticPolicy(kFleetDegraded, "static:degraded");
    case kPolicyRoundRobin:
      return MakeRoundRobinPolicy();
    case kPolicyQueueDepth:
      return MakeQueueDepthPolicy();
    case kPolicySloAware: {
      SloAwarePolicyConfig slo;
      slo.sla_ns = config.sla_ns;
      slo.objective = config.slo_objective;
      return MakeSloAwarePolicy(slo);
    }
    default:
      MICROREC_CHECK(false);
      return nullptr;
  }
}

void CheckGridConfig(const SweepGridConfig& config) {
  MICROREC_CHECK(config.queries >= 1);
  MICROREC_CHECK(config.qps > 0.0);
  MICROREC_CHECK(config.sla_ns > 0.0);
}

/// Expected run span; burst geometry and the fleet's fault windows scale
/// with it so the sweep keeps its shape at any --queries/--qps.
Nanoseconds GridSpan(const SweepGridConfig& config) {
  return static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
}

/// The grid's query stream for one arrival process.
std::vector<SchedQuery> GridStream(const SweepGridConfig& config,
                                   std::size_t process_index) {
  const Nanoseconds span_ns = GridSpan(config);
  LoadGenConfig load;
  load.process = kProcesses[process_index];
  load.rate_qps = config.qps;
  load.num_queries = config.queries;
  load.seed = exec::ParallelRunner::SubSeed(config.seed, process_index);
  load.sizes = config.sizes;
  load.burst_dwell_mean_ns = 0.07 * span_ns;
  load.calm_dwell_mean_ns = 0.28 * span_ns;
  load.flash_start_ns = 0.30 * span_ns;
  load.flash_duration_ns = 0.20 * span_ns;
  load.diurnal_period_ns = 0.50 * span_ns;
  return GenerateLoad(load);
}

/// One grid point: a fresh standard fleet under the point's policy,
/// through the event loop with the fault-tolerance layer off.
FtSchedReport RunGridPoint(const SweepGridConfig& config,
                           const std::vector<SchedQuery>& stream,
                           std::size_t policy_index, obs::EventLog* log) {
  FleetConfig fleet_config;
  fleet_config.seed = config.seed;
  fleet_config.horizon_ns = GridSpan(config);
  fleet_config.lookups_per_item = config.sizes.lookups_per_item;
  auto fleet = BuildStandardFleet(fleet_config);
  auto policy = MakeGridPolicy(policy_index, config);
  FtOptions ft;
  ft.base.sla_ns = config.sla_ns;
  ft.base.slo_objective = config.slo_objective;
  ft.event_log = log;
  return SimulateFaultTolerantServing(stream, fleet, *policy, ft);
}

}  // namespace

SchedSweepResult RunSchedSweep(const SweepGridConfig& config) {
  CheckGridConfig(config);

  // Per-process streams, generated serially up front and shared read-only
  // by that process's seven policy points (policies are compared on the
  // exact same queries).
  std::vector<std::vector<SchedQuery>> streams;
  streams.reserve(kNumProcesses);
  for (std::size_t pr = 0; pr < kNumProcesses; ++pr) {
    streams.push_back(GridStream(config, pr));
  }

  exec::ParallelRunner runner(exec::ExecConfig::WithThreads(config.threads));
  const std::size_t grid_size = kNumProcesses * kNumPolicies;
  std::vector<SchedReport> reports =
      runner.Map(grid_size, [&](std::size_t p) {
        return RunGridPoint(config, streams[p / kNumPolicies],
                            p % kNumPolicies, /*log=*/nullptr)
            .base;
      });

  SchedSweepResult result;
  result.records.reserve(grid_size);
  for (std::size_t p = 0; p < grid_size; ++p) {
    SweepRecord record;
    record.process =
        ArrivalProcessName(kProcesses[p / kNumPolicies]);
    record.policy = reports[p].policy;
    record.report = std::move(reports[p]);
    result.records.push_back(std::move(record));
  }

  // Headline: per bursty process, the best static single-backend policy
  // that kept availability >= 99.9% (none may qualify when every static
  // path sheds; then the comparison falls back to all statics) versus
  // slo-aware on p99. slo-aware must itself keep availability to win.
  for (std::size_t pr = 1; pr < kNumProcesses; ++pr) {
    const SweepRecord* best = nullptr;
    for (std::size_t pol = kPolicyStaticFpga; pol <= kPolicyStaticDegraded;
         ++pol) {
      const SweepRecord& r = result.records[pr * kNumPolicies + pol];
      if (r.report.availability < 0.999) continue;
      if (best == nullptr || r.report.serving.p99 < best->report.serving.p99) {
        best = &r;
      }
    }
    if (best == nullptr) {
      for (std::size_t pol = kPolicyStaticFpga; pol <= kPolicyStaticDegraded;
           ++pol) {
        const SweepRecord& r = result.records[pr * kNumPolicies + pol];
        if (best == nullptr ||
            r.report.serving.p99 < best->report.serving.p99) {
          best = &r;
        }
      }
    }
    const SweepRecord& slo =
        result.records[pr * kNumPolicies + kPolicySloAware];
    SweepHeadline headline;
    headline.process = slo.process;
    headline.best_static = best->policy;
    headline.best_static_p99 = best->report.serving.p99;
    headline.slo_aware_p99 = slo.report.serving.p99;
    headline.slo_beats_best_static =
        slo.report.availability >= 0.999 &&
        slo.report.serving.p99 < best->report.serving.p99;
    result.slo_beats_best_static_any |= headline.slo_beats_best_static;
    result.headlines.push_back(std::move(headline));
  }
  return result;
}

FtSchedReport RecordSchedSweepPoint(const SweepGridConfig& config,
                                    std::size_t process_index,
                                    std::size_t policy_index,
                                    obs::EventLog& log) {
  MICROREC_CHECK(process_index < kNumProcesses);
  MICROREC_CHECK(policy_index < kNumPolicies);
  CheckGridConfig(config);
  // The grid's own per-point setup; recording never changes a run, so
  // this report matches the sweep's record for the point exactly.
  return RunGridPoint(config, GridStream(config, process_index),
                      policy_index, &log);
}

}  // namespace microrec::sched
