// Online-serving simulation (an extension of paper section 4.1's latency
// argument).
//
// CPU serving must aggregate queries into batches to reach throughput,
// paying batch-wait plus a batch-sized processing time against the SLA of
// tens of milliseconds. MicroRec streams items through the pipeline with a
// per-item initiation interval, so tail latency collapses to microseconds.
// The state machines behind both paths live in pipeline_server.hpp and
// batched_server.hpp; the serving loop that drives them is
// sched::SimulateFaultTolerantServing (a single-path server is a static
// policy over one sched::Backend). This header holds what every serving
// study shares: the arrival process and the percentile summary.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace microrec {

/// Query arrival timestamps (ns, nondecreasing).
std::vector<Nanoseconds> PoissonArrivals(double rate_qps,
                                         std::uint64_t num_queries,
                                         std::uint64_t seed);

/// Percentile summary of per-query latencies.
struct ServingReport {
  std::uint64_t queries = 0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< queries / makespan
  Nanoseconds p50 = 0.0;
  Nanoseconds p95 = 0.0;
  Nanoseconds p99 = 0.0;
  Nanoseconds max = 0.0;
  Nanoseconds mean = 0.0;
  double sla_violation_rate = 0.0;

  std::string ToString() const;
};

/// Builds the percentile report from per-query completion times. Shared by
/// every serving simulation (the scheduler, the update-aware and degraded
/// simulators) so reports are comparable field-for-field.
ServingReport SummarizeServing(const std::vector<Nanoseconds>& arrivals,
                               const std::vector<Nanoseconds>& completions,
                               Nanoseconds sla_ns);

/// Latency of processing a batch of the given size (ns).
using BatchLatencyFn = std::function<Nanoseconds(std::uint64_t batch)>;

}  // namespace microrec
