#include "sched/fault_sweep.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "exec/parallel.hpp"
#include "faults/failover.hpp"
#include "faults/fault_schedule.hpp"
#include "placement/replication.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"

namespace microrec::sched {

namespace {

/// One replication factor's plan and the channels worth failing in it.
struct ReplicationCase {
  std::uint32_t replication = 0;
  ReplicationPlan plan;
  std::vector<std::uint32_t> candidates;
  Nanoseconds item_latency_ns = 0.0;
};

/// Distinct HBM banks serving the plan, round-robin by replica index. DDR
/// never fails here.
std::vector<std::uint32_t> FailureCandidates(const ReplicationPlan& plan,
                                             std::uint32_t hbm_channels) {
  std::vector<std::uint32_t> candidates;
  std::uint32_t max_replicas = 0;
  for (const auto& table : plan.tables) {
    max_replicas = std::max(max_replicas, table.replicas());
  }
  for (std::uint32_t i = 0; i < max_replicas; ++i) {
    for (const auto& table : plan.tables) {
      if (i >= table.replicas()) continue;
      const std::uint32_t bank = table.banks[i];
      if (bank >= hbm_channels) continue;
      if (std::find(candidates.begin(), candidates.end(), bank) ==
          candidates.end()) {
        candidates.push_back(bank);
      }
    }
  }
  return candidates;
}

/// The one-replica pool that serves `failed` channels lost for the whole
/// run, priced once through the failover router.
PipelineBackendConfig PricePool(const ReplicationCase& c,
                                const std::vector<std::uint32_t>& failed,
                                const MicroRecEngine& engine) {
  PipelineBackendConfig pool;
  pool.item_latency_ns = c.item_latency_ns;
  pool.initiation_interval_ns = engine.timing().initiation_interval_ns;
  pool.admission_queue_ns = kFaultSweepSlaNs;

  const FaultSchedule schedule = FaultSchedule::FailChannels(failed);
  const FailoverRouter router(&c.plan, &schedule);
  const std::uint32_t lookups = engine.model().lookups_per_table;
  if (!router.Route(lookups, 0.0).fully_servable()) {
    // A table lost every replica: no query can be served.
    FaultEvent crash;
    crash.kind = FaultKind::kReplicaCrash;
    crash.end_ns = kFaultNoRecovery;
    MICROREC_CHECK(pool.faults.Add(crash).ok());
    return pool;
  }
  const Nanoseconds base_lookup = c.plan.lookup_latency_ns;
  const Nanoseconds lookup =
      router.DegradedLookupLatency(lookups, engine.options().platform, 0.0);
  pool.item_latency_ns = c.item_latency_ns - base_lookup + lookup;
  const double capacity_factor = lookup / base_lookup;
  if (capacity_factor > 1.0) pool.initiation_interval_ns *= capacity_factor;
  return pool;
}

}  // namespace

StatusOr<std::vector<FaultSweepPoint>> RunFaultSweep(
    const MicroRecEngine& engine, const std::vector<Nanoseconds>& arrivals,
    std::uint64_t max_failed, std::size_t threads) {
  if (arrivals.empty()) {
    return Status::InvalidArgument("fault sweep: no arrivals");
  }
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] < arrivals[i - 1]) {
      return Status::InvalidArgument(
          "fault sweep: arrivals are not nondecreasing at index " +
          std::to_string(i));
    }
  }

  // Plans are shared read-only inputs, built serially up front.
  const MemoryPlatformSpec& platform = engine.options().platform;
  std::vector<ReplicationCase> cases;
  for (std::uint32_t replication : {1u, 2u, 4u}) {
    ReplicationOptions ropts;
    ropts.lookups_per_table = engine.model().lookups_per_table;
    ropts.max_replicas = replication;
    ropts.availability_replicas = replication;
    auto plan = ReplicateAndPlace(engine.model().tables, platform, ropts);
    if (!plan.ok()) return plan.status();
    ReplicationCase c;
    c.replication = replication;
    c.plan = std::move(*plan);
    c.candidates = FailureCandidates(c.plan, platform.hbm_channels);
    c.item_latency_ns = engine.ItemLatency() -
                        engine.EmbeddingLookupLatency() +
                        c.plan.lookup_latency_ns;
    if (!(c.item_latency_ns > 0.0 && c.plan.lookup_latency_ns > 0.0 &&
          engine.timing().initiation_interval_ns > 0.0)) {
      return Status::InvalidArgument(
          "fault sweep: item latency, lookup latency and initiation "
          "interval must be > 0");
    }
    cases.push_back(std::move(c));
  }

  std::vector<FaultSweepPoint> points;
  std::vector<const ReplicationCase*> point_case;
  for (const ReplicationCase& c : cases) {
    for (std::uint64_t k = 0;
         k <= max_failed && k <= c.candidates.size(); ++k) {
      FaultSweepPoint point;
      point.replication = c.replication;
      point.failed_channels = k;
      point.item_latency_ns = c.item_latency_ns;
      points.push_back(point);
      point_case.push_back(&c);
    }
  }

  const obs::SloSpec slo_spec = obs::SloSpec::Default(
      kFaultSweepSlaNs, 0.999, std::max(arrivals.back(), 1.0));
  exec::ParallelRunner runner(exec::ExecConfig::WithThreads(threads));
  return runner.Map(points.size(), [&](std::size_t p) {
    const ReplicationCase& c = *point_case[p];
    FaultSweepPoint point = points[p];
    const std::vector<std::uint32_t> failed(
        c.candidates.begin(), c.candidates.begin() + point.failed_channels);
    std::vector<obs::QueryOutcome> outcomes;
    const SchedReport report = ServeOnBackend(
        arrivals,
        std::make_unique<PipelineBackend>(PricePool(c, failed, engine)),
        kFaultSweepSlaNs, &outcomes);
    point.serving = report.serving;
    point.availability = report.availability;
    point.slo = obs::EvaluateSlo(slo_spec, outcomes);
    return point;
  });
}

}  // namespace microrec::sched
