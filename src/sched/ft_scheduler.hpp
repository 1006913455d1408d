// The multi-path serving simulation: policy-routed queries over a Backend
// fleet, with per-backend usage accounting and SLO evaluation. It is the
// one serving loop for routed fleets -- a single-path server is a static
// policy over one backend, the hybrid CPU-spill fleet is MakeSpillPolicy
// over two. It runs as a discrete-event simulation so queries can be
// re-admitted after their arrival instant -- which is what deadlines,
// retries, and hedges require -- while every backend still sees
// nondecreasing admit times (its contract). Original admissions are read
// from the sorted stream and win time ties; only re-admissions, timeouts
// and deadlines go through the event heap, and before each event only
// backends whose Backend::NextDueNs has come are drained.
//
// Base behaviour: each query is routed once at its arrival, the policy's
// pick is admitted unconditionally (a rejected admit is a shed), and
// backend completion streams merge in (completion, id) order before
// reaching the policy's feedback hook, so the same inputs produce
// byte-identical reports at any call site.
//
// On top of that it layers, each independently switchable:
//
//   * Circuit breakers (sched/health.hpp), one per backend, fed by
//     deterministic health probes (a probe clock checks Accepting every
//     probe_interval_ns), attempt timeouts, and rejected admits. Routing
//     only considers breaker-allowed backends; half-open breakers admit
//     accounted trial queries.
//   * Per-query deadlines with retry-and-re-admit: an attempt that has
//     not completed after retry.attempt_timeout_ns is abandoned (the
//     inner machine cannot cancel work, so its eventual completion is
//     accounted as cancelled) and the query re-admits to a surviving
//     backend it has not tried yet, after RetryPolicy exponential
//     backoff. A query still pending at arrival + deadline_ns is a
//     timeout: terminal, bad for the SLO, never served.
//   * Hedged requests: once enough latency history exists, each query
//     schedules one duplicate admission after a p99-derived delay; the
//     first completion wins, the loser's completion is cancelled and
//     accounted.
//   * Priority-class load shedding: when every breaker is open,
//     low-priority (large re-rank) queries shed immediately; high-
//     priority queries force-admit to the breaker that reopens soonest.
//
// Terminal accounting is exact: every offered query ends in exactly one
// of {served, shed, timed_out} (the never-drop invariant, gated in
// tests/chaos_test.cpp). With every feature disabled the loop is exactly
// the base behaviour above: routing a stream to one pipeline or batched
// CPU backend reproduces that server's own recurrence bit for bit
// (gated in tests/sched_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "faults/retry.hpp"
#include "obs/event_log.hpp"
#include "obs/slo.hpp"
#include "sched/backend.hpp"
#include "sched/health.hpp"
#include "sched/policy.hpp"
#include "serving/serving_sim.hpp"

namespace microrec::sched {

struct SchedOptions {
  /// Per-query latency SLA; also the SLO's latency threshold.
  Nanoseconds sla_ns = 0.0;
  /// Target good fraction for the burn-rate SLO evaluation.
  double slo_objective = 0.99;
};

/// How much of the stream one backend absorbed.
struct BackendUsage {
  std::string name;
  std::uint64_t queries = 0;
  std::uint64_t items = 0;
};

struct SchedReport {
  std::string policy;
  /// Percentile summary over *served* queries (the shared SummarizeServing
  /// arithmetic; zeroed when everything was shed).
  ServingReport serving;
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  double availability = 1.0;  ///< served / offered
  /// Burn-rate SLO over all offered queries (shed = bad), spec'd from
  /// SchedOptions with the run span as the budget period.
  obs::SloReport slo;
  std::vector<BackendUsage> usage;  ///< fleet order

  std::string ToString() const;
};

/// Hedged-request knobs. The hedge delay adapts: it is
/// max(delay_scale * observed-latency-quantile, min_delay_ns), and no
/// hedge is scheduled until min_history latencies have been observed
/// (hedging off a cold estimate would double-send everything).
struct HedgeConfig {
  bool enabled = false;
  double quantile = 0.99;
  double delay_scale = 1.0;
  Nanoseconds min_delay_ns = Microseconds(200);
  std::uint64_t min_history = 64;
};

struct FtOptions {
  SchedOptions base;

  /// 0 disables deadlines. A pending query is timed out (terminal) at
  /// arrival + deadline_ns; no retry is scheduled past it.
  Nanoseconds deadline_ns = 0.0;

  bool breakers_enabled = false;
  CircuitBreakerConfig breaker;
  /// Health-probe cadence feeding the breakers (Accepting checks).
  Nanoseconds probe_interval_ns = Microseconds(50);

  /// Retries: attempt_timeout_ns abandons an attempt, BackoffAfterAttempt
  /// spaces re-admissions, max_attempts bounds total admissions per query
  /// (the original counts as attempt 1). Hedges do not count.
  bool retries_enabled = false;
  RetryPolicy retry;

  HedgeConfig hedge;

  /// Priority class boundary: queries with items <= this are high
  /// priority (the interactive small-candidate-set class) and bypass
  /// all-breakers-open shedding.
  std::uint64_t high_priority_max_items = 1;

  /// Optional: receives every offered query's outcome in arrival order
  /// (the input to obs::EvaluateRecovery).
  std::vector<obs::QueryOutcome>* outcomes = nullptr;

  /// Optional flight recorder (obs/event_log.hpp): every routing
  /// decision (with per-backend probes), admit, retry, hedge, shed,
  /// breaker transition, and terminal is appended as a typed event.
  /// Recording reads only pure probes -- with or without a recorder the
  /// simulation is bit-for-bit identical (gated in tests/chaos_test.cpp).
  obs::EventLog* event_log = nullptr;
};

struct FtSchedReport {
  /// The base scheduler's report shape, built with the identical
  /// arithmetic. base.shed counts every unserved query; timed_out below
  /// is the subset that was admitted but missed its deadline.
  SchedReport base;

  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;       ///< successful re-admissions
  std::uint64_t hedges = 0;        ///< hedge admissions dispatched
  std::uint64_t hedge_wins = 0;    ///< queries whose hedge finished first
  std::uint64_t cancelled_completions = 0;  ///< losers + late stragglers
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_sheds = 0;   ///< all-open, low-priority sheds
  std::uint64_t forced_admits = 0;   ///< all-open, high-priority bypasses
  std::uint64_t probe_dispatches = 0;  ///< half-open trial admissions
  std::uint64_t probes_failed = 0;     ///< health probes that found a dark backend
  /// Arrival times of hedge-won queries (for per-fault-window rates).
  std::vector<Nanoseconds> hedge_win_arrival_ns;

  std::string ToString() const;
};

/// Runs the stream through the fleet under `policy` with the
/// fault-tolerance layer of `options`. Queries must be in nondecreasing
/// arrival order with ids 0..n-1 (GenerateLoad's contract). Deterministic:
/// completions merge in (completion, id, backend) order and events in a
/// (time, sequence-number) total order.
FtSchedReport SimulateFaultTolerantServing(
    const std::vector<SchedQuery>& queries,
    std::vector<std::unique_ptr<Backend>>& backends,
    SchedulingPolicy& policy, const FtOptions& options);

/// Serves one single-item query per arrival on `backend` alone: a static
/// policy over a one-backend fleet, fault-tolerance layer off. This is how
/// a single-path server (one pipeline pool, one batched CPU pool) runs.
/// `outcomes` (optional) receives every query's outcome in arrival order.
SchedReport ServeOnBackend(const std::vector<Nanoseconds>& arrivals,
                           std::unique_ptr<Backend> backend,
                           Nanoseconds sla_ns,
                           std::vector<obs::QueryOutcome>* outcomes = nullptr);

}  // namespace microrec::sched
