// The policy x arrival-process sweep grid shared by the sched-sweep CLI,
// bench_scheduler, and the determinism tests.
//
// One config expands to: four arrival processes (poisson, mmpp,
// flash-crowd, diurnal) x seven policies (one static per fleet backend,
// round-robin, queue-depth, slo-aware), every point simulating the same
// per-process query stream against a fresh standard fleet. Points run
// through the deterministic parallel runner, so results are byte-identical
// at any thread count.
//
// The headline the subsystem exists to demonstrate is computed here too:
// for each bursty process, the best *static single-backend* policy that
// kept availability (so a policy pinned to the fault-degraded pool does
// not "win" by shedding) is compared against slo-aware on p99.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/load_gen.hpp"

namespace microrec::sched {

/// Policy indices within each process's block of the grid.
inline constexpr std::size_t kPolicyStaticFpga = 0;
inline constexpr std::size_t kPolicyStaticCpu = 1;
inline constexpr std::size_t kPolicyStaticHotCache = 2;
inline constexpr std::size_t kPolicyStaticDegraded = 3;
inline constexpr std::size_t kPolicyRoundRobin = 4;
inline constexpr std::size_t kPolicyQueueDepth = 5;
inline constexpr std::size_t kPolicySloAware = 6;
inline constexpr std::size_t kNumPolicies = 7;

/// Grid order: process-major, policy-minor, processes in ArrivalProcess
/// declaration order.
inline constexpr std::size_t kNumProcesses = 4;

struct SweepGridConfig {
  std::uint64_t queries = 40'000;
  double qps = 700'000.0;
  std::uint64_t seed = 42;
  Nanoseconds sla_ns = Milliseconds(2);
  double slo_objective = 0.99;
  QuerySizeConfig sizes = {/*small_items=*/1, /*large_items=*/64,
                           /*large_fraction=*/0.1, /*lookups_per_item=*/8};
  std::size_t threads = 1;
};

struct SweepRecord {
  std::string process;
  std::string policy;
  SchedReport report;
};

/// Per-bursty-process comparison backing the headline.
struct SweepHeadline {
  std::string process;
  std::string best_static;  ///< best availability-keeping static policy
  Nanoseconds best_static_p99 = 0.0;
  Nanoseconds slo_aware_p99 = 0.0;
  bool slo_beats_best_static = false;
};

struct SchedSweepResult {
  std::vector<SweepRecord> records;  ///< kNumProcesses * kNumPolicies
  std::vector<SweepHeadline> headlines;  ///< one per bursty process
  /// True when slo-aware beat every static single-backend policy on p99
  /// under at least one bursty arrival process (the acceptance headline).
  bool slo_beats_best_static_any = false;
};

/// Runs the full grid. Every point runs the event loop with the
/// fault-tolerance layer off. Deterministic in (config minus threads):
/// each process's stream generates from SubSeed(config.seed, process
/// index), every point gets a fresh standard fleet, and all reduction
/// happens in grid order.
SchedSweepResult RunSchedSweep(const SweepGridConfig& config);

/// Re-runs one grid point through the grid's own per-point setup (same
/// stream, fleet, and policy) with a flight recorder attached. Recording
/// never changes a run (test-gated), so the recorded report matches the
/// sweep's record for that point exactly. Backs `sched-sweep
/// --record-events`.
FtSchedReport RecordSchedSweepPoint(const SweepGridConfig& config,
                                    std::size_t process_index,
                                    std::size_t policy_index,
                                    obs::EventLog& log);

}  // namespace microrec::sched
