// Ablation: degraded-mode serving under channel failures (robustness
// extension; cf. the GPU inference parameter server and RecNMP's
// memory-subsystem sensitivity in the paper's related work).
//
// Part (a): p99 and availability vs the number of failed HBM channels, at
// table-replication factors 1, 2, and 4 -- "what does a lost channel cost
// at p99, and how many replicas buy it back?" -- through the fault sweep
// the CLI runs too (sched/fault_sweep.hpp).
// Part (b): with zero injected faults, each sweep point must be
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
#include "sched/backends.hpp"
#include "sched/fault_sweep.hpp"
#include "sched/ft_scheduler.hpp"
#include "workload/model_zoo.hpp"

using namespace microrec;

int main() {
  bench::PrintHeader(
      "Ablation: availability and tail latency vs failed HBM channels",
      "robustness extension (degraded-mode serving, replication 1/2/4)");

  const auto model = DlrmRmc2Model(8, 32);
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

  // The (replication, failed-channels) grid runs on the deterministic
  // parallel engine (exec/) and prints in index order -- the table is
  // byte-identical at any thread count.
  const auto points = sched::RunFaultSweep(engine, arrivals, kMaxFailed,
                                           exec::DefaultThreads())
                          .value();

  for (const sched::FaultSweepPoint& point : points) {
    const ServingReport& serving = point.serving;
    const double shed_rate = 1.0 - point.availability;
    if (point.failed_channels == 0) {
      // Part (b): zero injected faults == a fault-free pipeline pool with
      // the grid's replica count, field for field.
      sched::PipelineBackendConfig pool;
      pool.replicas = 1;
      pool.item_latency_ns = point.item_latency_ns;
      pool.initiation_interval_ns = engine.timing().initiation_interval_ns;
      const ServingReport baseline =
          sched::ServeOnBackend(
              arrivals, std::make_unique<sched::PipelineBackend>(pool),
              sched::kFaultSweepSlaNs)
              .serving;
      const bool same = point.availability == 1.0 &&
                        serving.p50 == baseline.p50 &&
                        serving.p95 == baseline.p95 &&
                        serving.p99 == baseline.p99 &&
                        serving.max == baseline.max &&
                        serving.mean == baseline.mean &&
                        serving.achieved_qps == baseline.achieved_qps;
      if (!same) {
        identity_ok = false;
        std::printf("IDENTITY FAILURE at replication %u: fault-aware "
                    "p99 %.3f vs fault-free %.3f\n",
                    point.replication, serving.p99, baseline.p99);
      }
    }

    table.AddRow({std::to_string(point.replication),
                  std::to_string(point.failed_channels),
                  TablePrinter::Num(100.0 * point.availability, 2) + "%",
                  TablePrinter::Num(100.0 * shed_rate, 2) + "%",
                  TablePrinter::Num(serving.p50 / 1000.0, 2),
                  TablePrinter::Num(serving.p99 / 1000.0, 2)});
    json.AddRecord({{"replication", point.replication},
                    {"failed_channels", point.failed_channels},
                    {"availability", point.availability},
                    {"shed_rate", shed_rate},
                    {"p50_ns", serving.p50},
                    {"p99_ns", serving.p99}});
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
