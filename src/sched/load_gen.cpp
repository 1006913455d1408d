#include "sched/load_gen.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace microrec::sched {

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kMmpp:
      return "mmpp";
    case ArrivalProcess::kFlashCrowd:
      return "flash-crowd";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  return "unknown";
}

namespace {

/// Rate function lambda(t) of the non-homogeneous processes. The MMPP
/// state timeline is materialized lazily as t advances, drawing dwell
/// times from its own stream so the candidate-arrival draws are
/// independent of the modulation.
class RateEnvelope {
 public:
  explicit RateEnvelope(const LoadGenConfig& config)
      : config_(config), dwell_rng_(HashSeed(config.seed, 2)) {}

  double peak_rate() const {
    switch (config_.process) {
      case ArrivalProcess::kPoisson:
        return config_.rate_qps;
      case ArrivalProcess::kMmpp:
      case ArrivalProcess::kFlashCrowd:
        return config_.rate_qps * config_.burst_multiplier;
      case ArrivalProcess::kDiurnal:
        return config_.rate_qps * (1.0 + config_.diurnal_amplitude);
    }
    return config_.rate_qps;
  }

  /// lambda(t); `t` must be nondecreasing across calls (MMPP advances its
  /// state machine).
  double RateAt(Nanoseconds t) {
    switch (config_.process) {
      case ArrivalProcess::kPoisson:
        return config_.rate_qps;
      case ArrivalProcess::kMmpp: {
        while (t >= state_end_ns_) {
          in_burst_ = !in_burst_;
          const Nanoseconds mean = in_burst_ ? config_.burst_dwell_mean_ns
                                             : config_.calm_dwell_mean_ns;
          const double u = std::max(dwell_rng_.NextDouble(), 1e-12);
          state_end_ns_ += -std::log(u) * mean;
        }
        return in_burst_ ? config_.rate_qps * config_.burst_multiplier
                         : config_.rate_qps;
      }
      case ArrivalProcess::kFlashCrowd: {
        const bool inside =
            t >= config_.flash_start_ns &&
            t < config_.flash_start_ns + config_.flash_duration_ns;
        return inside ? config_.rate_qps * config_.burst_multiplier
                      : config_.rate_qps;
      }
      case ArrivalProcess::kDiurnal: {
        const double phase =
            2.0 * 3.14159265358979323846 * t / config_.diurnal_period_ns;
        return config_.rate_qps *
               (1.0 + config_.diurnal_amplitude * std::sin(phase));
      }
    }
    return config_.rate_qps;
  }

 private:
  const LoadGenConfig& config_;
  Rng dwell_rng_;
  // MMPP state: the timeline starts calm at t = 0.
  bool in_burst_ = false;
  Nanoseconds state_end_ns_ = 0.0;
};

}  // namespace

std::vector<SchedQuery> GenerateLoad(const LoadGenConfig& config) {
  MICROREC_CHECK(config.rate_qps > 0.0);
  MICROREC_CHECK(config.num_queries >= 1);
  MICROREC_CHECK(config.sizes.small_items >= 1);
  MICROREC_CHECK(config.sizes.large_items >= 1);

  std::vector<SchedQuery> queries;
  queries.reserve(config.num_queries);

  Rng arrival_rng(config.seed);
  Rng size_rng(HashSeed(config.seed, 1));

  RateEnvelope envelope(config);
  const double peak = envelope.peak_rate();
  const double candidate_gap_ns = kNanosPerSecond / peak;

  Nanoseconds t = 0.0;
  while (queries.size() < config.num_queries) {
    // Candidate arrival at the peak rate. For the homogeneous process the
    // acceptance test below always passes without drawing, so this loop
    // consumes exactly one uniform per query -- the same sequence, and
    // therefore the same timestamps, as PoissonArrivals(rate, n, seed).
    const double u = std::max(arrival_rng.NextDouble(), 1e-12);
    t += -std::log(u) * candidate_gap_ns;
    if (config.process != ArrivalProcess::kPoisson) {
      const double accept = envelope.RateAt(t) / peak;
      if (arrival_rng.NextDouble() >= accept) continue;  // thinned out
    }
    SchedQuery q;
    q.id = queries.size();
    q.arrival_ns = t;
    q.lookups_per_item = config.sizes.lookups_per_item;
    const bool large = size_rng.NextDouble() < config.sizes.large_fraction;
    q.items = large ? config.sizes.large_items : config.sizes.small_items;
    queries.push_back(q);
  }
  return queries;
}

std::vector<SchedQuery> SingleItemQueries(
    const std::vector<Nanoseconds>& arrivals) {
  std::vector<SchedQuery> queries;
  queries.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    queries.push_back(SchedQuery{i, arrivals[i], 1, 1});
  }
  return queries;
}

}  // namespace microrec::sched
