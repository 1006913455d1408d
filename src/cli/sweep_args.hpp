// Shared parsing of the sweep commands' common options. update-sweep,
// fault-sweep, scaleout, and sched-sweep all take --queries/--seed/--threads
// (and most take --qps); each used to validate them with its own copy of
// the same code. One helper keeps the defaults per command but the
// validation -- and its exact error messages -- in one place.
#pragma once

#include <cstdint>
#include <string>

#include "cli/args.hpp"
#include "common/status.hpp"

namespace microrec::cli {

/// Largest grid a sweep accepts for --points or --fault-points (the
/// defaults are 3-5). The grid is sized from the count before any point
/// runs, so a larger one is refused rather than allocated.
inline constexpr std::uint64_t kMaxSweepPoints = 1024;

/// Reads the grid-size option --`name` (default `default_points`) and
/// rejects a count outside [min_points, kMaxSweepPoints].
StatusOr<std::uint64_t> ParseSweepPoints(const ArgList& args,
                                         const std::string& name,
                                         std::uint64_t default_points,
                                         std::uint64_t min_points);

/// Per-command defaults for the shared sweep options.
struct SweepArgsSpec {
  std::uint64_t default_queries = 10'000;
  std::uint64_t default_qps = 150'000;
  std::uint64_t default_seed = 42;
  /// scaleout sweeps its own --qps-min/--qps-max grid instead of a single
  /// --qps; it sets this false and `qps` stays at the default.
  bool wants_qps = true;
};

struct SweepArgs {
  std::uint64_t queries = 0;
  std::uint64_t qps = 0;
  std::uint64_t seed = 0;
  /// Resolved worker count (0 on the command line = one per hardware
  /// thread, via exec::ResolveThreads).
  std::size_t threads = 1;

  static StatusOr<SweepArgs> Parse(const ArgList& args,
                                   const SweepArgsSpec& spec);
};

/// Which of the shared --fault-* options a command takes, and their
/// defaults. fault-sweep wants the failure-count grid bound; chaos-sweep
/// wants the intensity grid and its fault seed.
struct FaultArgsSpec {
  bool wants_max_failed = false;
  std::uint64_t default_max_failed = 8;
  bool wants_intensity = false;
  double default_intensity_max = 1.0;
  std::uint64_t default_intensity_points = 3;
  std::uint64_t default_fault_seed = 7;
};

/// Parsed --fault-* options shared by the fault-facing sweeps
/// (fault-sweep's channel grid, chaos-sweep's intensity grid).
struct FaultArgs {
  /// --fault-max-failed (fault-sweep also accepts the legacy
  /// --max-failed spelling): largest failed-channel count in the grid.
  std::uint64_t max_failed = 0;
  /// --fault-intensity-max in [0, 1] and --fault-points >= 1: the
  /// intensity grid; --fault-seed seeds the scenario noise.
  double intensity_max = 0.0;
  std::uint64_t intensity_points = 0;
  std::uint64_t fault_seed = 0;

  static StatusOr<FaultArgs> Parse(const ArgList& args,
                                   const FaultArgsSpec& spec);
};

}  // namespace microrec::cli
