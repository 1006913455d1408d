// Bursty / diurnal arrival-process generation with query-size mixes.
//
// Serving studies before this subsystem used PoissonArrivals only; real
// recommendation traffic is bursty on short scales (MMPP), spiky on event
// scales (flash crowds), and periodic on long scales (diurnal). All four
// processes generate from an explicit seed, and the Poisson path performs
// the identical draw sequence as PoissonArrivals(rate, n, seed) so
// timestamps agree bit for bit with every existing serving study
// (tests/sched_test.cpp gates this). The non-homogeneous processes use
// Lewis-Shedler thinning: candidate arrivals at the peak rate, accepted
// with probability rate(t) / peak_rate, which keeps one code path exact
// for any rate function.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sched/backend.hpp"

namespace microrec::sched {

enum class ArrivalProcess {
  kPoisson,     ///< homogeneous at rate_qps
  kMmpp,        ///< Markov-modulated: calm at rate_qps, bursts at a multiple
  kFlashCrowd,  ///< one rate spike of fixed position and duration
  kDiurnal,     ///< sinusoidal rate over a period
};

const char* ArrivalProcessName(ArrivalProcess process);

/// Bimodal query-size mix: most queries score a small candidate set, a
/// fraction re-rank a large one (the paper's batch dimension).
struct QuerySizeConfig {
  std::uint64_t small_items = 1;
  std::uint64_t large_items = 64;
  double large_fraction = 0.0;  ///< probability a query is large
  std::uint64_t lookups_per_item = 1;
};

struct LoadGenConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double rate_qps = 1.0;  ///< base (calm / mean) arrival rate
  std::uint64_t num_queries = 1;
  std::uint64_t seed = 1;
  QuerySizeConfig sizes;

  // MMPP: dwell times in each state are exponential; the burst state
  // multiplies the base rate.
  double burst_multiplier = 3.0;
  Nanoseconds burst_dwell_mean_ns = Milliseconds(5);
  Nanoseconds calm_dwell_mean_ns = Milliseconds(20);

  // Flash crowd: rate is burst_multiplier x base inside the window.
  Nanoseconds flash_start_ns = Milliseconds(10);
  Nanoseconds flash_duration_ns = Milliseconds(10);

  // Diurnal: rate(t) = base * (1 + amplitude * sin(2 pi t / period)).
  Nanoseconds diurnal_period_ns = Milliseconds(40);
  double diurnal_amplitude = 0.8;  ///< in [0, 1)
};

/// Generates `num_queries` queries with nondecreasing arrivals and ids
/// 0..n-1. Sizes draw from an independent sub-seeded stream
/// (HashSeed(seed, 1)), so the arrival process of a given (process, seed)
/// never shifts when the size mix changes.
std::vector<SchedQuery> GenerateLoad(const LoadGenConfig& config);

/// One single-item, single-lookup query per arrival (ids 0..n-1 in stream
/// order): the stream shape of a PoissonArrivals serving study.
std::vector<SchedQuery> SingleItemQueries(
    const std::vector<Nanoseconds>& arrivals);

}  // namespace microrec::sched
