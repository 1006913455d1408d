#include "sched/fleet.hpp"

#include "common/rng.hpp"
#include "common/status.hpp"

namespace microrec::sched {

std::vector<std::unique_ptr<Backend>> BuildStandardFleet(
    const FleetConfig& config) {
  std::vector<std::unique_ptr<Backend>> fleet;
  fleet.reserve(kFleetSize);

  PipelineBackendConfig fpga;
  fpga.name = "fpga";
  fpga.replicas = config.fpga_replicas;
  fpga.item_latency_ns = config.fpga_item_latency_ns;
  fpga.initiation_interval_ns = config.fpga_initiation_interval_ns;
  fleet.push_back(std::make_unique<PipelineBackend>(fpga));

  CpuBackendConfig cpu;
  cpu.name = "cpu";
  cpu.servers = config.cpu_servers;
  cpu.max_batch = config.cpu_max_batch;
  cpu.batch_timeout_ns = config.cpu_batch_timeout_ns;
  cpu.fixed_overhead_ns = config.cpu_fixed_overhead_ns;
  cpu.per_item_ns = config.cpu_per_item_ns;
  cpu.per_lookup_ns = config.cpu_per_lookup_ns;
  cpu.lookups_per_item = config.lookups_per_item;
  fleet.push_back(std::make_unique<CpuBatchedBackend>(cpu));

  HotCacheBackendConfig cache;
  cache.name = "hot_cache";
  cache.hit_item_latency_ns = config.cache_hit_item_latency_ns;
  cache.miss_item_latency_ns = config.cache_miss_item_latency_ns;
  cache.initiation_interval_ns = config.cache_initiation_interval_ns;
  cache.cache_capacity_bytes = config.cache_capacity_bytes;
  cache.entry_bytes = config.cache_entry_bytes;
  cache.key_space = config.cache_key_space;
  cache.zipf_theta = config.cache_zipf_theta;
  cache.seed = HashSeed(config.seed, 17);
  fleet.push_back(std::make_unique<HotCacheBackend>(cache));

  // Fault windows at fixed fractions of the horizon: replica k is down
  // over [0.25 + 0.15 k, 0.55 + 0.15 k) of the run, and replica 0 serves
  // 2.5x slow just before its outage. With two replicas the pool is fully
  // dark over [0.40, 0.55) of the horizon, so a static policy pinned here
  // must shed -- that is the failure mode the scheduler should route
  // around.
  PipelineBackendConfig degraded;
  degraded.name = "degraded";
  degraded.replicas = config.degraded_replicas;
  degraded.item_latency_ns = config.degraded_item_latency_ns;
  degraded.initiation_interval_ns = config.degraded_initiation_interval_ns;
  const Nanoseconds h = config.horizon_ns;
  for (std::uint32_t k = 0; k < config.degraded_replicas; ++k) {
    FaultEvent crash;
    crash.kind = FaultKind::kReplicaCrash;
    crash.start_ns = h * (0.25 + 0.15 * static_cast<double>(k));
    crash.end_ns = h * (0.55 + 0.15 * static_cast<double>(k));
    crash.target = k;
    MICROREC_CHECK(degraded.faults.Add(crash).ok());
  }
  FaultEvent slow;
  slow.kind = FaultKind::kChannelDegrade;
  slow.start_ns = h * 0.10;
  slow.end_ns = h * 0.25;
  slow.target = 0;
  slow.magnitude = 2.5;
  MICROREC_CHECK(degraded.faults.Add(slow).ok());
  fleet.push_back(std::make_unique<PipelineBackend>(degraded));

  return fleet;
}

}  // namespace microrec::sched
