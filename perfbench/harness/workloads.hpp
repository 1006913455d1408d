// The four perfbench workloads. Each takes its inputs from the run's seed,
// times calls through the system's public entry points, checks every output
// it times, and returns its metrics by name. With a tracer the same
// workload runs its traced variant instead and returns per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

/// engine-batch (CpuEngine::InferBatch at batch 256 on PooledCpuGateModel)
/// and engine-online (CpuEngine::InferOne on SmallProductionModel).
RunResult RunEngineWorkload(const RunOptions& options, SpanTracer* tracer);

/// sim-fleet (sched::RunChaosSweep) and sim-accel (the update-rate grid of
/// SimulateServingWithUpdates on exec::ParallelRunner).
RunResult RunSimWorkload(const RunOptions& options, SpanTracer* tracer);

/// Digests of the inputs a workload generates from `seed` (the queries or
/// arrival stream the program receives), without running anything timed.
std::uint64_t EngineInputDigest(const std::string& workload,
                                std::uint64_t seed);
std::uint64_t SimInputDigest(const std::string& workload, std::uint64_t seed);

/// Per-point report digests of a serial run of a simulator sweep.
std::vector<std::uint64_t> SerialSimDigests(const std::string& workload,
                                            std::uint64_t seed);

}  // namespace perfbench
