#include "cli/sweep_args.hpp"

#include "exec/parallel.hpp"

namespace microrec::cli {

StatusOr<std::uint64_t> ParseSweepPoints(const ArgList& args,
                                         const std::string& name,
                                         std::uint64_t default_points,
                                         std::uint64_t min_points) {
  auto points = args.GetUint(name, default_points);
  if (!points.ok()) return points.status();
  if (*points < min_points || *points > kMaxSweepPoints) {
    return Status::InvalidArgument(
        "--" + name + " must be in [" + std::to_string(min_points) + ", " +
        std::to_string(kMaxSweepPoints) + "]");
  }
  return *points;
}

StatusOr<SweepArgs> SweepArgs::Parse(const ArgList& args,
                                     const SweepArgsSpec& spec) {
  SweepArgs parsed;
  auto queries = args.GetUint("queries", spec.default_queries);
  if (!queries.ok()) return queries.status();
  if (*queries == 0) return Status::InvalidArgument("--queries must be >= 1");
  parsed.queries = *queries;

  parsed.qps = spec.default_qps;
  if (spec.wants_qps) {
    auto qps = args.GetUint("qps", spec.default_qps);
    if (!qps.ok()) return qps.status();
    if (*qps == 0) return Status::InvalidArgument("--qps must be >= 1");
    parsed.qps = *qps;
  }

  auto seed = args.GetUint("seed", spec.default_seed);
  if (!seed.ok()) return seed.status();
  parsed.seed = *seed;

  auto threads = args.GetUint("threads", 1);
  if (!threads.ok()) return threads.status();
  parsed.threads = exec::ResolveThreads(static_cast<std::size_t>(*threads));
  return parsed;
}

StatusOr<FaultArgs> FaultArgs::Parse(const ArgList& args,
                                     const FaultArgsSpec& spec) {
  FaultArgs parsed;
  if (spec.wants_max_failed) {
    // --fault-max-failed is canonical; --max-failed predates the shared
    // parser and stays as an alias. The canonical spelling wins if both
    // are given.
    auto legacy = args.GetUint("max-failed", spec.default_max_failed);
    if (!legacy.ok()) return legacy.status();
    auto max_failed = args.GetUint("fault-max-failed", *legacy);
    if (!max_failed.ok()) return max_failed.status();
    parsed.max_failed = *max_failed;
  }
  if (spec.wants_intensity) {
    auto intensity =
        args.GetDouble("fault-intensity-max", spec.default_intensity_max);
    if (!intensity.ok()) return intensity.status();
    if (*intensity < 0.0 || *intensity > 1.0) {
      return Status::InvalidArgument(
          "--fault-intensity-max must be in [0, 1]");
    }
    parsed.intensity_max = *intensity;

    auto points = ParseSweepPoints(args, "fault-points",
                                   spec.default_intensity_points, 1);
    if (!points.ok()) return points.status();
    parsed.intensity_points = *points;

    auto fault_seed = args.GetUint("fault-seed", spec.default_fault_seed);
    if (!fault_seed.ok()) return fault_seed.status();
    parsed.fault_seed = *fault_seed;
  }
  return parsed;
}

}  // namespace microrec::cli
