// Ablation: degraded-mode serving under channel failures (robustness
// extension; cf. the GPU inference parameter server and RecNMP's
// memory-subsystem sensitivity in the paper's related work).
//
// Part (a): p99 and availability vs the number of failed HBM channels, at
// table-replication factors 1, 2, and 4 -- "what does a lost channel cost
// at p99, and how many replicas buy it back?".
// Part (b): with zero injected faults, the fault-aware simulator must be
// field-for-field identical to a fault-free sched::PipelineBackend with the
// same replica count (the injection layer is zero-cost when disabled); the
// run fails loudly if not. Emits BENCH_ablation_faults.json alongside the
// table.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "core/microrec.hpp"
#include "exec/parallel.hpp"
#include "faults/degraded_serving.hpp"
#include "faults/failover.hpp"
#include "faults/fault_schedule.hpp"
#include "placement/replication.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "workload/model_zoo.hpp"

using namespace microrec;

namespace {

/// Distinct HBM banks serving the plan, round-robin by replica index
/// (every table's first replica before any table's second) so k failures
/// spread across k tables the way random channel failures do.
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
      bool seen = false;
      for (std::uint32_t c : candidates) seen = seen || c == bank;
      if (!seen) candidates.push_back(bank);
    }
  }
  return candidates;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation: availability and tail latency vs failed HBM channels",
      "robustness extension (degraded-mode serving, replication 1/2/4)");

  const auto model = DlrmRmc2Model(8, 32);
  const auto platform = MemoryPlatformSpec::AlveoU280();
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(model, options).value();

  constexpr double kQueryQps = 150'000.0;
  constexpr std::uint64_t kQueries = 30'000;
  constexpr std::uint64_t kMaxFailed = 6;
  const auto arrivals = PoissonArrivals(kQueryQps, kQueries, 13);
  std::printf("model: %s (%u lookups/table) | %.0f QPS, %llu queries\n",
              model.name.c_str(), model.lookups_per_table, kQueryQps,
              (unsigned long long)kQueries);

  bool identity_ok = true;
  bench::JsonReport json("ablation_faults");
  TablePrinter table({"Replication", "Failed ch", "Availability",
                      "Shed rate", "p50 (us)", "p99 (us)"});

  // Plans are shared read-only inputs built serially; the flattened
  // (replication, failed-channels) grid then runs on the deterministic
  // parallel engine (exec/) and prints in index order -- the table is
  // byte-identical at any thread count.
  struct Case {
    std::uint32_t replication = 0;
    ReplicationPlan plan;
    std::vector<std::uint32_t> candidates;
    Nanoseconds item_latency_ns = 0.0;
  };
  std::vector<Case> cases;
  for (std::uint32_t replication : {1u, 2u, 4u}) {
    ReplicationOptions ropts;
    ropts.lookups_per_table = model.lookups_per_table;
    ropts.max_replicas = replication;
    ropts.availability_replicas = replication;
    Case c;
    c.replication = replication;
    c.plan = ReplicateAndPlace(model.tables, platform, ropts).value();
    c.candidates = FailureCandidates(c.plan, platform.hbm_channels);
    c.item_latency_ns = engine.ItemLatency() -
                        engine.EmbeddingLookupLatency() +
                        c.plan.lookup_latency_ns;
    cases.push_back(std::move(c));
  }
  struct Point {
    std::size_t case_index = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Point> grid;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::uint64_t k = 0;
         k <= kMaxFailed && k <= cases[c].candidates.size(); ++k) {
      grid.push_back(Point{c, k});
    }
  }

  exec::ParallelRunner runner(
      exec::ExecConfig::WithThreads(exec::DefaultThreads()));
  const auto reports = runner.Map(grid.size(), [&](std::size_t p) {
    const Case& c = cases[grid[p].case_index];
    const std::vector<std::uint32_t> failed(
        c.candidates.begin(), c.candidates.begin() + grid[p].failed);
    const FaultSchedule schedule = FaultSchedule::FailChannels(failed);
    const FailoverRouter router(&c.plan, &schedule);

    DegradedServingConfig config;
    config.pipeline_replicas = 1;
    config.item_latency_ns = c.item_latency_ns;
    config.initiation_interval_ns = engine.timing().initiation_interval_ns;
    config.base_lookup_latency_ns = c.plan.lookup_latency_ns;
    config.lookups_per_table = model.lookups_per_table;
    return SimulateDegradedServing(arrivals, config, schedule, &router,
                                   &platform)
        .value();
  });

  for (std::size_t p = 0; p < grid.size(); ++p) {
    const Case& c = cases[grid[p].case_index];
    const std::uint64_t k = grid[p].failed;
    const DegradedServingReport& report = reports[p];

    if (k == 0) {
      // Part (b): zero injected faults == a fault-free pipeline pool with
      // the grid's replica count, field for field.
      sched::PipelineBackendConfig pool;
      pool.replicas = 1;
      pool.item_latency_ns = c.item_latency_ns;
      pool.initiation_interval_ns = engine.timing().initiation_interval_ns;
      const ServingReport baseline =
          sched::ServeOnBackend(
              arrivals, std::make_unique<sched::PipelineBackend>(pool),
              DegradedServingConfig{}.sla_ns)
              .serving;
      const bool same = report.availability == 1.0 &&
                        report.serving.p50 == baseline.p50 &&
                        report.serving.p95 == baseline.p95 &&
                        report.serving.p99 == baseline.p99 &&
                        report.serving.max == baseline.max &&
                        report.serving.mean == baseline.mean &&
                        report.serving.achieved_qps ==
                            baseline.achieved_qps;
      if (!same) {
        identity_ok = false;
        std::printf("IDENTITY FAILURE at replication %u: fault-aware "
                    "p99 %.3f vs fault-free %.3f\n",
                    c.replication, report.serving.p99, baseline.p99);
      }
    }

    table.AddRow({std::to_string(c.replication), std::to_string(k),
                  TablePrinter::Num(100.0 * report.availability, 2) + "%",
                  TablePrinter::Num(100.0 * report.shed_rate, 2) + "%",
                  TablePrinter::Num(report.serving.p50 / 1000.0, 2),
                  TablePrinter::Num(report.serving.p99 / 1000.0, 2)});
    json.AddRecord({{"replication", c.replication},
                    {"failed_channels", k},
                    {"availability", report.availability},
                    {"shed_rate", report.shed_rate},
                    {"p50_ns", report.serving.p50},
                    {"p99_ns", report.serving.p99}});
  }
  table.Print();
  json.Meta("zero_fault_identity", identity_ok);
  json.WriteFile();
  bench::PrintNote(
      "replication 1 loses whole tables with their channel (availability "
      "collapses); replication 2 and 4 re-route the dead channel's lookups "
      "to surviving replicas, trading extra rounds (higher p99) for "
      "availability -- and at zero faults the injection layer reproduces "
      "the fault-free simulator exactly");
  if (!identity_ok) {
    std::printf("FAIL: zero-fault identity violated\n");
    return 1;
  }
  return 0;
}
