// Pluggable per-query routing policies over the Backend fleet.
//
// A policy sees each query at its arrival instant plus the fleet's pure
// probes (cost models, queue depths, Accepting), picks a backend index,
// and receives every completed query's outcome as feedback in completion
// order. Policies are deterministic: no wall clock, no randomness beyond
// what the caller seeds, so a routed run replays bit for bit.
//
// Five families, in increasing awareness:
//   static       -- all queries to one fixed backend (a single-path
//                   server, and the baseline the headline result compares
//                   against)
//   round-robin  -- cycles the fleet, blind to state
//   spill        -- one primary backend, an overflow backend once the
//                   primary's backlog passes a threshold (the hybrid
//                   CPU-spill fleet)
//   queue-depth  -- argmin of predicted latency (backlog + modeled service)
//   slo-aware    -- queue-depth prediction gated by an SLO burn-rate
//                   feedback loop (see MakeSloAwarePolicy)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/slo.hpp"
#include "sched/backend.hpp"

namespace microrec::obs {
struct SchedEvent;
}

namespace microrec::sched {

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual std::string_view name() const = 0;

  /// Picks the backend index for `q`. `backends` is non-empty; the choice
  /// must be a valid index (the scheduler sheds if the chosen backend
  /// rejects the admit).
  virtual std::size_t Route(
      const SchedQuery& q,
      const std::vector<std::unique_ptr<Backend>>& backends) = 0;

  /// Feedback: called for every query outcome in completion order (shed
  /// queries surface at their arrival time with served = false).
  virtual void OnOutcome(const obs::QueryOutcome& /*outcome*/) {}
};

/// Routes everything to backends[backend_index]. `name` labels the policy
/// in reports (convention: "static:<backend name>").
std::unique_ptr<SchedulingPolicy> MakeStaticPolicy(std::size_t backend_index,
                                                   std::string name);

std::unique_ptr<SchedulingPolicy> MakeRoundRobinPolicy();

/// Hybrid spill routing (DeepRecSys-style CPU spillover): a query stays on
/// backends[primary] unless the primary's QueueDepthNs at its arrival
/// exceeds `threshold_ns`, in which case it goes to backends[overflow] --
/// trading the spilled query's latency for protecting the primary's tail.
std::unique_ptr<SchedulingPolicy> MakeSpillPolicy(std::size_t primary,
                                                  std::size_t overflow,
                                                  Nanoseconds threshold_ns);

/// Argmin of Backend::PredictLatency over accepting backends (lowest
/// index on ties; falls back to index 0 if nothing accepts).
std::unique_ptr<SchedulingPolicy> MakeQueueDepthPolicy();

/// SLO-aware routing: queue-depth prediction plus a burn-rate-controlled
/// occupancy gate on the fast path.
///
/// Mechanics: the policy designates, per query, the accepting backend with
/// the smallest *modeled service time* as that query's fast path. It
/// routes there unless admitting the query would push the fast path's
/// occupancy -- (backlog + the query's own service time) / SLA -- over an
/// adaptive threshold, in which case the query is offloaded to the
/// accepting backend with the smallest predicted latency among the rest.
/// Because a large query's own service time is charged against the gate,
/// large re-rank queries offload to the throughput path first and small
/// queries keep the low-latency path -- the MP-Rec-style split.
///
/// The threshold adapts from SLO feedback: a sliding window of recent
/// outcomes yields an error-budget burn rate (bad fraction over 1 -
/// objective); sustained burn >= burn_high multiplicatively shrinks the
/// threshold (protect the fast path earlier), burn <= burn_low relaxes it.
struct SloAwarePolicyConfig {
  Nanoseconds sla_ns = 0.0;
  double objective = 0.99;  ///< target good fraction, as in obs::SloSpec
  std::size_t window = 256;  ///< outcomes in the sliding feedback window
  double burn_high = 1.0;    ///< shrink threshold at or above this burn
  double burn_low = 0.25;    ///< relax threshold at or below this burn
  double occupancy_init = 0.4;  ///< initial gate, as a fraction of the SLA
  double occupancy_min = 0.02;
  double occupancy_max = 0.6;
  double shrink = 0.7;
  double grow = 1.05;
};

std::unique_ptr<SchedulingPolicy> MakeSloAwarePolicy(
    const SloAwarePolicyConfig& config);

/// Captures, into `event.probes`, the decision signals every policy ranks
/// on -- PredictLatency, QueueDepthNs, Accepting -- for each backend at
/// `q`'s arrival instant. Reads only the fleet's pure const probes, so
/// collecting never perturbs a run; the scheduler's flight recorder calls
/// this on every routing decision. `admissible` and `breaker` are left for
/// the caller (only the scheduler knows its admission filter).
void CollectBackendProbes(const SchedQuery& q,
                          const std::vector<std::unique_ptr<Backend>>& backends,
                          obs::SchedEvent& event);

}  // namespace microrec::sched
