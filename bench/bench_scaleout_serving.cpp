// Extension: fleet-scale serving economics. Combines the paper's cost
// appendix with the serving simulators: how many devices and dollars does
// a target traffic level need, and what latency does each fleet deliver?
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "core/microrec.hpp"
#include "cpu/paper_baseline.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "serving/scaleout.hpp"
#include "serving/serving_sim.hpp"
#include "workload/model_zoo.hpp"

using namespace microrec;

int main() {
  bench::PrintHeader(
      "Extension: fleet provisioning and latency at datacenter traffic",
      "cost appendix, scaled out");

  const auto model = SmallProductionModel();
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(model, options).value();

  const DeviceClass cpu{PaperEndToEndThroughput(false, 2048).value(), 1.82};
  const DeviceClass fpga{engine.Throughput(), 1.65};

  // Part 1: provisioning sweep.
  {
    TablePrinter table({"Target qps", "CPU servers", "CPU $/h",
                        "FPGA cards", "FPGA $/h", "FPGA cost advantage"});
    for (double qps : {1e5, 5e5, 1e6, 5e6, 1e7}) {
      const auto cpu_plan = ProvisionFleet(qps, cpu).value();
      const auto fpga_plan = ProvisionFleet(qps, fpga).value();
      table.AddRow({TablePrinter::Sci(qps, 0),
                    std::to_string(cpu_plan.devices),
                    TablePrinter::Num(cpu_plan.dollars_per_hour),
                    std::to_string(fpga_plan.devices),
                    TablePrinter::Num(fpga_plan.dollars_per_hour),
                    TablePrinter::Speedup(cpu_plan.dollars_per_hour /
                                          fpga_plan.dollars_per_hour)});
    }
    table.Print();
  }

  // Part 2: latency of a provisioned FPGA fleet vs an equally provisioned
  // batched-CPU fleet at 1M qps.
  {
    const double qps = 1e6;
    const auto fpga_plan = ProvisionFleet(qps, fpga).value();
    const auto arrivals = PoissonArrivals(qps, 200'000, 11);
    sched::PipelineBackendConfig pool;
    pool.replicas = static_cast<std::uint32_t>(fpga_plan.devices);
    pool.item_latency_ns = engine.ItemLatency();
    pool.initiation_interval_ns = engine.timing().initiation_interval_ns;
    const ServingReport fpga_fleet =
        sched::ServeOnBackend(arrivals,
                              std::make_unique<sched::PipelineBackend>(pool),
                              Milliseconds(30))
            .serving;
    std::printf("\nFPGA fleet of %llu cards at %.0e qps:\n  %s\n",
                (unsigned long long)fpga_plan.devices, qps,
                fpga_fleet.ToString().c_str());
    std::printf("Every query completes in ~%s -- the batching CPU fleet's "
                "floor is its batch window plus a multi-ms batch (see "
                "bench_table2 / online_serving example).\n",
                FormatNanos(fpga_fleet.p99).c_str());
  }

  // Part 3: hybrid scheduling (DeepRecSys-style, from the paper's related
  // work): an under-provisioned FPGA pool protected by CPU spillover.
  {
    const double fpga_capacity =
        kNanosPerSecond / engine.timing().initiation_interval_ns;
    const auto queries =
        sched::SingleItemQueries(PoissonArrivals(1.4 * fpga_capacity,
                                                 100'000, 21));

    // One fleet shape, two policies: backend 0 is one FPGA card, backend 1
    // five batched CPU servers at 3 ms + 12 us per item. The spill policy
    // moves a query to the CPUs once the card's backlog passes 1 ms.
    const auto run = [&](sched::SchedulingPolicy& policy) {
      std::vector<std::unique_ptr<sched::Backend>> fleet;
      sched::PipelineBackendConfig fpga_pool;
      fpga_pool.item_latency_ns = engine.ItemLatency();
      fpga_pool.initiation_interval_ns =
          engine.timing().initiation_interval_ns;
      fleet.push_back(std::make_unique<sched::PipelineBackend>(fpga_pool));
      sched::CpuBackendConfig cpu_pool;
      cpu_pool.servers = 5;
      cpu_pool.max_batch = 256;
      cpu_pool.batch_timeout_ns = Milliseconds(5);
      cpu_pool.fixed_overhead_ns = Milliseconds(3.0);
      cpu_pool.per_item_ns = Microseconds(12.0);
      fleet.push_back(std::make_unique<sched::CpuBatchedBackend>(cpu_pool));
      sched::FtOptions options;
      options.base.sla_ns = Milliseconds(30);
      return sched::SimulateFaultTolerantServing(queries, fleet, policy,
                                                 options)
          .base;
    };
    const auto spill = sched::MakeSpillPolicy(0, 1, Milliseconds(1));
    const auto fpga_only = sched::MakeStaticPolicy(0, "static:fpga");
    const sched::SchedReport hybrid = run(*spill);
    const sched::SchedReport alone = run(*fpga_only);

    std::printf("\nHybrid scheduling at 1.4x one card's capacity "
                "(1 FPGA + 5 CPU servers):\n");
    TablePrinter table({"Fleet", "FPGA queries", "CPU queries", "p50", "p99",
                        "SLA violations"});
    const auto add_row = [&](const char* label, const sched::SchedReport& r) {
      table.AddRow({label, std::to_string(r.usage[0].queries),
                    std::to_string(r.usage[1].queries),
                    FormatNanos(r.serving.p50), FormatNanos(r.serving.p99),
                    TablePrinter::Num(100.0 * r.serving.sla_violation_rate,
                                      1) + "%"});
    };
    add_row("FPGA only (overloaded)", alone);
    add_row("hybrid with CPU spill", hybrid);
    table.Print();
    bench::PrintNote(
        "spilling the surplus to batched CPU servers bounds the tail at a "
        "CPU batch's cost while the median stays on the microsecond FPGA "
        "path -- the DeepRecSys scheduling idea applied to MicroRec");
  }
  return 0;
}
