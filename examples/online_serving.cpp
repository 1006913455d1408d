// Online serving comparison: a batched CPU server vs MicroRec's
// item-streaming pipeline under a Poisson query load, reporting latency
// percentiles against the tens-of-milliseconds SLA (paper section 4.1).
// Each path is one sched::Backend serving the whole stream.
//
//   ./build/examples/online_serving [qps]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/microrec.hpp"
#include "cpu/paper_baseline.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "serving/serving_sim.hpp"
#include "workload/model_zoo.hpp"

using namespace microrec;

int main(int argc, char** argv) {
  const double qps = argc > 1 ? std::atof(argv[1]) : 50'000.0;
  const Nanoseconds sla = Milliseconds(30);
  const auto model = SmallProductionModel();

  std::printf("Scenario: %s, %.0f queries/s Poisson arrivals, SLA %s\n\n",
              model.name.c_str(), qps, FormatNanos(sla).c_str());

  const auto arrivals = PoissonArrivals(qps, 50'000, /*seed=*/42);

  // CPU server: aggregates batches of up to 2048 with a 10 ms window;
  // batch latency follows the paper's published Table 2 curve
  // (~3.3 ms fixed + ~12.2 us per item).
  sched::CpuBackendConfig cpu_server;
  cpu_server.max_batch = 2048;
  cpu_server.batch_timeout_ns = Milliseconds(10);
  cpu_server.fixed_overhead_ns = Milliseconds(3.3);
  cpu_server.per_item_ns = Microseconds(12.2);
  const ServingReport cpu =
      sched::ServeOnBackend(
          arrivals, std::make_unique<sched::CpuBatchedBackend>(cpu_server),
          sla)
          .serving;
  std::printf("CPU (batched, paper-calibrated):\n  %s\n\n",
              cpu.ToString().c_str());

  // MicroRec: item-by-item streaming at the simulated pipeline's timing.
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(model, options).value();
  sched::PipelineBackendConfig pipeline;
  pipeline.item_latency_ns = engine.ItemLatency();
  pipeline.initiation_interval_ns = engine.timing().initiation_interval_ns;
  const ServingReport fpga =
      sched::ServeOnBackend(
          arrivals, std::make_unique<sched::PipelineBackend>(pipeline), sla)
          .serving;
  std::printf("MicroRec (item streaming, %s item latency, %.2e items/s):\n"
              "  %s\n\n",
              FormatNanos(engine.ItemLatency()).c_str(), engine.Throughput(),
              fpga.ToString().c_str());

  std::printf("p99 advantage: %.0fx lower latency\n", cpu.p99 / fpga.p99);
  return 0;
}
