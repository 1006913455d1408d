#include "sched/ft_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <sstream>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "sched/load_gen.hpp"

namespace microrec::sched {

namespace {

constexpr std::size_t kNoPick = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNoAttempt = std::numeric_limits<std::uint32_t>::max();

enum class EventKind : std::uint8_t { kAdmission, kTimeout, kDeadline };

struct Event {
  Nanoseconds time = 0.0;
  std::uint64_t seq = 0;  ///< FIFO among equal-time events; total order
  std::uint64_t query = 0;
  /// kAdmission: 0 = original, k >= 1 = k-th retry.
  std::uint32_t attempt = 0;
  /// kTimeout: the timed-out attempt's index in the attempt arena.
  std::uint32_t record = 0;
  EventKind kind = EventKind::kAdmission;
  bool is_hedge = false;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// One dispatched admission of a query. Records live in one arena in
/// dispatch order; each query chains its own newest-first through `prev`.
struct AttemptRec {
  std::uint32_t prev = kNoAttempt;  ///< the query's previous attempt
  std::uint8_t backend = 0;         ///< fleets have at most 32 backends
  bool is_hedge = false;
  bool timed_out = false;
  bool completed = false;
};

enum class Terminal : std::uint8_t { kPending, kServed, kShed, kTimedOut };

/// Per-query state; the arrival stays in the offered query.
struct QueryState {
  Nanoseconds completion = 0.0;
  std::uint32_t last_attempt = kNoAttempt;  ///< newest AttemptRec
  std::uint32_t admitted = 0;     ///< dispatched admissions (hedges incl.)
  std::uint32_t retry_count = 0;  ///< sequential retries scheduled
  std::uint32_t tried_mask = 0;   ///< backends this query has been admitted to
  Terminal terminal = Terminal::kPending;
  bool hedge_scheduled = false;
};

struct TaggedCompletion {
  Nanoseconds completion_ns = 0.0;
  std::uint64_t query_id = 0;
  std::size_t backend = 0;
};

}  // namespace

std::string SchedReport::ToString() const {
  std::ostringstream os;
  os << policy << ": " << served << "/" << offered << " served"
     << " | availability " << 100.0 * availability << "%"
     << " | p99 " << FormatNanos(serving.p99)
     << " | SLO bad " << 100.0 * slo.bad_fraction << "%"
     << (slo.alerted ? " [ALERT]" : "");
  return os.str();
}

std::string FtSchedReport::ToString() const {
  std::ostringstream os;
  os << base.ToString() << " | timed_out " << timed_out << " | retries "
     << retries << " | hedge " << hedge_wins << "/" << hedges
     << " | breaker opens " << breaker_opens;
  return os.str();
}

FtSchedReport SimulateFaultTolerantServing(
    const std::vector<SchedQuery>& queries,
    std::vector<std::unique_ptr<Backend>>& backends,
    SchedulingPolicy& policy, const FtOptions& options) {
  MICROREC_CHECK(!queries.empty());
  MICROREC_CHECK(!backends.empty());
  MICROREC_CHECK(options.base.sla_ns > 0.0);
  MICROREC_CHECK(backends.size() <= 32);  // tried_mask is a uint32
  if (options.retries_enabled) {
    MICROREC_CHECK(options.retry.Validate().ok());
  }
  if (options.breakers_enabled) {
    MICROREC_CHECK(options.probe_interval_ns > 0.0);
  }

  const std::size_t n_backends = backends.size();
  const bool breakers_on = options.breakers_enabled;

  FtSchedReport report;
  report.base.policy = std::string(policy.name());
  report.base.usage.resize(n_backends);
  for (std::size_t i = 0; i < n_backends; ++i) {
    report.base.usage[i].name = std::string(backends[i]->name());
  }

  // Flight recorder. Every Append below reads only values the scheduler
  // already computed (or pure const probes), so recording never changes
  // the simulation -- the identity gate in tests/chaos_test.cpp.
  obs::EventLog* const elog = options.event_log;
  if (elog != nullptr && elog->backend_names().empty()) {
    std::vector<std::string> names;
    names.reserve(n_backends);
    for (const auto& b : backends) names.emplace_back(b->name());
    elog->set_backend_names(std::move(names));
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    // GenerateLoad's contract: ids 0..n-1 in stream order (the
    // re-admission path recovers a query's sizes from its id) and
    // nondecreasing arrivals (every backend's admit-time contract, and
    // what lets the loop read originals straight from the stream).
    MICROREC_CHECK(queries[i].id == i);
    MICROREC_CHECK(i == 0 ||
                   queries[i].arrival_ns >= queries[i - 1].arrival_ns);
  }
  std::vector<QueryState> states(queries.size());
  std::vector<AttemptRec> attempts;
  attempts.reserve(queries.size());

  std::vector<CircuitBreaker> breakers;
  if (breakers_on) {
    breakers.assign(n_backends, CircuitBreaker(options.breaker));
    if (elog != nullptr) {
      for (std::size_t b = 0; b < n_backends; ++b) {
        breakers[b].set_transition_listener(
            [elog, b](BreakerState to, Nanoseconds now,
                      Nanoseconds reopen_at_ns) {
              obs::SchedEvent ev;
              ev.time_ns = now;
              ev.backend = static_cast<std::int32_t>(b);
              switch (to) {
                case BreakerState::kOpen:
                  ev.kind = obs::SchedEventKind::kBreakerOpen;
                  ev.value = reopen_at_ns;
                  break;
                case BreakerState::kHalfOpen:
                  ev.kind = obs::SchedEventKind::kBreakerHalfOpen;
                  break;
                case BreakerState::kClosed:
                  ev.kind = obs::SchedEventKind::kBreakerClose;
                  break;
              }
              elog->Append(std::move(ev));
            });
      }
    }
  }

  // Hedge-delay estimator: bounded-memory latency histogram (obs). Only
  // consulted when hedging is enabled.
  obs::Histogram latency_hist(
      obs::HistogramOptions{/*min_value=*/1000.0, /*growth=*/1.2,
                            /*num_buckets=*/96});

  // Everything scheduled after an arrival: retries, hedges, timeouts and
  // deadlines. Original admissions never enter it (see the event loop).
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t next_seq = 0;
  const auto push_event = [&](Event e) {
    e.seq = next_seq++;
    events.push(e);
  };

  // ---- Completion delivery --------------------------------------------
  std::vector<SchedCompletion> backend_scratch;
  std::vector<TaggedCompletion> step;
  const auto deliver = [&]() {
    std::sort(step.begin(), step.end(),
              [](const TaggedCompletion& a, const TaggedCompletion& b) {
                if (a.completion_ns != b.completion_ns) {
                  return a.completion_ns < b.completion_ns;
                }
                if (a.query_id != b.query_id) return a.query_id < b.query_id;
                return a.backend < b.backend;
              });
    for (const TaggedCompletion& c : step) {
      QueryState& s = states[c.query_id];
      const Nanoseconds arrival = queries[c.query_id].arrival_ns;
      // Match the completion to its earliest outstanding attempt on this
      // backend (a query is admitted at most once per backend, but the
      // lookup shape stays correct if that ever changes). The chain runs
      // newest-first, so the last match is the earliest.
      AttemptRec* attempt = nullptr;
      for (std::uint32_t i = s.last_attempt; i != kNoAttempt;
           i = attempts[i].prev) {
        if (attempts[i].backend == c.backend && !attempts[i].completed) {
          attempt = &attempts[i];
        }
      }
      MICROREC_CHECK(attempt != nullptr);
      attempt->completed = true;
      if (breakers_on && !attempt->timed_out) {
        breakers[c.backend].OnSuccess(c.completion_ns);
      }
      if (s.terminal == Terminal::kPending) {
        s.terminal = Terminal::kServed;
        s.completion = c.completion_ns;
        const Nanoseconds latency = c.completion_ns - arrival;
        policy.OnOutcome({arrival, latency, true});
        if (options.hedge.enabled) latency_hist.Observe(latency);
        if (attempt->is_hedge) {
          ++report.hedge_wins;
          report.hedge_win_arrival_ns.push_back(arrival);
        }
        if (elog != nullptr) {
          obs::SchedEvent ev;
          ev.time_ns = c.completion_ns;
          ev.kind = attempt->is_hedge ? obs::SchedEventKind::kHedgeWin
                                      : obs::SchedEventKind::kServe;
          ev.query = c.query_id;
          ev.hedge = attempt->is_hedge;
          ev.backend = static_cast<std::int32_t>(c.backend);
          ev.value = latency;
          elog->Append(std::move(ev));
        }
      } else {
        ++report.cancelled_completions;
        MICROREC_LOG(kDebug)
            << "cancelled straggler completion: query=" << c.query_id
            << " backend=" << c.backend
            << (attempt->is_hedge ? " (lost hedge race)" : "");
        if (elog != nullptr) {
          obs::SchedEvent ev;
          ev.time_ns = c.completion_ns;
          ev.kind = obs::SchedEventKind::kCancel;
          ev.query = c.query_id;
          ev.hedge = attempt->is_hedge;
          ev.backend = static_cast<std::int32_t>(c.backend);
          elog->Append(std::move(ev));
        }
      }
    }
    step.clear();
  };
  const auto drain_until = [&](Nanoseconds now) {
    for (std::size_t b = 0; b < n_backends; ++b) {
      // Before its NextDueNs a backend has nothing to emit and nothing to
      // launch (the Backend contract), so skipping it changes nothing.
      if (backends[b]->NextDueNs() > now) continue;
      backend_scratch.clear();
      backends[b]->Drain(now, backend_scratch);
      for (const SchedCompletion& c : backend_scratch) {
        step.push_back({c.completion_ns, c.query_id, b});
      }
    }
    deliver();
  };

  // ---- Health probes ---------------------------------------------------
  Nanoseconds probe_next = options.probe_interval_ns;
  const auto run_probes = [&](Nanoseconds now) {
    if (!breakers_on) return;
    while (probe_next <= now) {
      for (std::size_t b = 0; b < n_backends; ++b) {
        if (!backends[b]->Accepting(probe_next)) {
          breakers[b].OnFailure(probe_next);
          ++report.probes_failed;
        }
      }
      probe_next += options.probe_interval_ns;
    }
  };

  // ---- Admission -------------------------------------------------------
  const auto handle_admission = [&](const Event& e) {
    QueryState& s = states[e.query];
    const Nanoseconds arrival = queries[e.query].arrival_ns;
    if (s.terminal != Terminal::kPending) return;  // resolved before firing
    if (e.is_hedge && s.admitted == 0) return;     // primary never admitted
    SchedQuery q2;
    q2.id = e.query;
    q2.arrival_ns = e.time;
    // Sizes come from the offered query (ids are 0..n-1 in stream order).
    q2.items = queries[e.query].items;
    q2.lookups_per_item = queries[e.query].lookups_per_item;

    const bool unrestricted = !breakers_on && e.attempt == 0 && !e.is_hedge;
    std::size_t pick = kNoPick;
    bool forced = false;
    if (unrestricted) {
      // The base path: the policy's pick is admitted unconditionally (a
      // rejected admit is a shed).
      pick = policy.Route(q2, backends);
      MICROREC_CHECK(pick < n_backends);
      if (elog != nullptr) {
        obs::SchedEvent ev;
        ev.time_ns = e.time;
        ev.kind = obs::SchedEventKind::kRoute;
        ev.query = e.query;
        ev.backend = static_cast<std::int32_t>(pick);
        ev.preferred = static_cast<std::int32_t>(pick);
        CollectBackendProbes(q2, backends, ev);
        for (obs::BackendProbe& p : ev.probes) p.admissible = true;
        elog->Append(std::move(ev));
      }
    } else {
      // Restricted admission: breaker-allowed, accepting, and (for
      // retries/hedges) not already tried by this query.
      const bool restrict_tried = e.attempt > 0 || e.is_hedge;
      bool all_open = breakers_on;
      std::uint32_t admissible = 0;
      for (std::size_t b = 0; b < n_backends; ++b) {
        const bool allowed = !breakers_on || breakers[b].Allow(e.time);
        if (breakers_on && breakers[b].state() != BreakerState::kOpen) {
          all_open = false;
        }
        if (allowed && backends[b]->Accepting(e.time) &&
            !(restrict_tried && (s.tried_mask >> b & 1u))) {
          admissible |= 1u << b;
        }
      }
      const std::size_t preferred = policy.Route(q2, backends);
      MICROREC_CHECK(preferred < n_backends);
      if (admissible >> preferred & 1u) {
        pick = preferred;
      } else {
        Nanoseconds best = 0.0;
        for (std::size_t b = 0; b < n_backends; ++b) {
          if (!(admissible >> b & 1u)) continue;
          const Nanoseconds predicted = backends[b]->PredictLatency(q2);
          if (pick == kNoPick || predicted < best) {
            pick = b;
            best = predicted;
          }
        }
      }
      if (pick == kNoPick && breakers_on && all_open) {
        if (q2.items <= options.high_priority_max_items) {
          // High priority: bypass the breaker that reopens soonest.
          Nanoseconds best_reopen = 0.0;
          for (std::size_t b = 0; b < n_backends; ++b) {
            if (restrict_tried && (s.tried_mask >> b & 1u)) continue;
            if (pick == kNoPick || breakers[b].reopen_at_ns() < best_reopen) {
              pick = b;
              best_reopen = breakers[b].reopen_at_ns();
            }
          }
          forced = pick != kNoPick;
          if (forced) {
            MICROREC_LOG(kDebug)
                << "all breakers open: force-admitting high-priority query "
                << e.query << " to backend " << pick << " (reopens at "
                << best_reopen << " ns)";
          }
        } else if (s.admitted == 0) {
          ++report.breaker_sheds;
        }
      }
      if (elog != nullptr) {
        obs::SchedEvent ev;
        ev.time_ns = e.time;
        ev.kind = obs::SchedEventKind::kRoute;
        ev.query = e.query;
        ev.attempt = e.attempt;
        ev.hedge = e.is_hedge;
        ev.backend = pick == kNoPick ? obs::kNoBackend
                                     : static_cast<std::int32_t>(pick);
        ev.preferred = static_cast<std::int32_t>(preferred);
        if (forced) ev.label = "forced";
        CollectBackendProbes(q2, backends, ev);
        for (std::size_t b = 0; b < n_backends; ++b) {
          ev.probes[b].admissible = (admissible >> b & 1u) != 0;
          if (breakers_on) {
            ev.probes[b].breaker =
                static_cast<std::int8_t>(breakers[b].state());
          }
        }
        elog->Append(std::move(ev));
      }
      if (pick == kNoPick) {
        // No admissible backend. Original admissions shed terminally;
        // retries/hedges leave the query to its in-flight attempts.
        if (s.admitted == 0) {
          MICROREC_LOG(kDebug)
              << "no admissible backend for query " << e.query
              << (all_open ? " (all breakers open): shedding"
                           : " (nothing accepting): shedding");
          s.terminal = Terminal::kShed;
          policy.OnOutcome({arrival, 0.0, false});
          if (elog != nullptr) {
            obs::SchedEvent ev;
            ev.time_ns = e.time;
            ev.kind = obs::SchedEventKind::kShed;
            ev.query = e.query;
            ev.label = all_open ? "breakers-open" : "no-admissible";
            elog->Append(std::move(ev));
          }
        }
        return;
      }
    }

    if (!backends[pick]->Admit(q2)) {
      if (breakers_on) breakers[pick].OnFailure(e.time);
      MICROREC_LOG(kDebug) << "backend " << pick << " rejected admit of query "
                           << e.query
                           << (s.admitted == 0 ? ": shedding"
                                               : " (re-admission attempt)");
      if (s.admitted == 0) {
        s.terminal = Terminal::kShed;
        policy.OnOutcome({arrival, 0.0, false});
        if (elog != nullptr) {
          obs::SchedEvent ev;
          ev.time_ns = e.time;
          ev.kind = obs::SchedEventKind::kShed;
          ev.query = e.query;
          ev.backend = static_cast<std::int32_t>(pick);
          ev.label = "admit-rejected";
          elog->Append(std::move(ev));
        }
      }
      return;
    }

    ++report.base.usage[pick].queries;
    report.base.usage[pick].items += q2.items;
    ++s.admitted;
    s.tried_mask |= 1u << pick;
    MICROREC_CHECK(attempts.size() < kNoAttempt);
    const auto record = static_cast<std::uint32_t>(attempts.size());
    AttemptRec attempt;
    attempt.prev = s.last_attempt;
    attempt.backend = static_cast<std::uint8_t>(pick);
    attempt.is_hedge = e.is_hedge;
    attempts.push_back(attempt);
    s.last_attempt = record;
    if (forced) ++report.forced_admits;
    if (breakers_on && breakers[pick].state() == BreakerState::kHalfOpen) {
      breakers[pick].OnDispatch(e.time);
      ++report.probe_dispatches;
    }
    if (e.is_hedge) ++report.hedges;
    if (e.attempt > 0 && !e.is_hedge) ++report.retries;
    if (elog != nullptr) {
      obs::SchedEvent ev;
      ev.time_ns = e.time;
      ev.kind = obs::SchedEventKind::kAdmit;
      ev.query = e.query;
      ev.attempt = e.attempt;
      ev.hedge = e.is_hedge;
      ev.backend = static_cast<std::int32_t>(pick);
      if (forced) ev.label = "forced";
      elog->Append(std::move(ev));
    }

    if (options.retries_enabled) {
      Event timeout;
      timeout.time = e.time + options.retry.attempt_timeout_ns;
      timeout.kind = EventKind::kTimeout;
      timeout.query = e.query;
      timeout.record = record;
      push_event(timeout);
    }
    if (e.attempt == 0 && !e.is_hedge) {
      if (options.deadline_ns > 0.0) {
        Event deadline;
        deadline.time = arrival + options.deadline_ns;
        deadline.kind = EventKind::kDeadline;
        deadline.query = e.query;
        push_event(deadline);
      }
      if (options.hedge.enabled && !s.hedge_scheduled &&
          latency_hist.count() >= options.hedge.min_history) {
        const Nanoseconds delay =
            std::max(options.hedge.delay_scale *
                         latency_hist.Quantile(options.hedge.quantile),
                     options.hedge.min_delay_ns);
        s.hedge_scheduled = true;
        Event hedge;
        hedge.time = e.time + delay;
        hedge.kind = EventKind::kAdmission;
        hedge.query = e.query;
        hedge.is_hedge = true;
        push_event(hedge);
        if (elog != nullptr) {
          obs::SchedEvent ev;
          ev.time_ns = e.time;
          ev.kind = obs::SchedEventKind::kHedgeIssue;
          ev.query = e.query;
          ev.hedge = true;
          ev.value = delay;
          elog->Append(std::move(ev));
        }
      }
    }
  };

  // ---- Timeout / deadline ---------------------------------------------
  const auto handle_timeout = [&](const Event& e) {
    QueryState& s = states[e.query];
    const Nanoseconds arrival = queries[e.query].arrival_ns;
    AttemptRec& attempt = attempts[e.record];
    if (attempt.completed) return;  // finished inside the timeout
    attempt.timed_out = true;
    if (breakers_on) breakers[attempt.backend].OnFailure(e.time);
    // Re-admit after backoff, if budget and deadline allow. `no_retry`
    // names the reason the retry chain ends here (recorded on the
    // timeout event); empty = a retry was scheduled.
    const char* no_retry = "";
    bool scheduled = false;
    Nanoseconds backoff = 0.0;
    if (s.terminal != Terminal::kPending) {
      no_retry = "already-resolved";
    } else if (s.retry_count + 1 >= options.retry.max_attempts) {
      no_retry = "retry-budget-exhausted";
    } else {
      ++s.retry_count;
      backoff = options.retry.BackoffAfterAttempt(s.retry_count);
      const Nanoseconds t = e.time + backoff;
      if (options.deadline_ns > 0.0 && t >= arrival + options.deadline_ns) {
        no_retry = "past-deadline";
      } else {
        scheduled = true;
        Event retry;
        retry.time = t;
        retry.kind = EventKind::kAdmission;
        retry.query = e.query;
        retry.attempt = s.retry_count;
        push_event(retry);
      }
    }
    if (elog != nullptr) {
      obs::SchedEvent ev;
      ev.time_ns = e.time;
      ev.kind = obs::SchedEventKind::kAttemptTimeout;
      ev.query = e.query;
      ev.hedge = attempt.is_hedge;
      ev.backend = static_cast<std::int32_t>(attempt.backend);
      ev.label = no_retry;
      elog->Append(std::move(ev));
      if (scheduled) {
        obs::SchedEvent retry_ev;
        retry_ev.time_ns = e.time;
        retry_ev.kind = obs::SchedEventKind::kRetry;
        retry_ev.query = e.query;
        retry_ev.attempt = s.retry_count;
        retry_ev.value = backoff;
        elog->Append(std::move(retry_ev));
      }
    }
  };

  const auto handle_deadline = [&](const Event& e) {
    QueryState& s = states[e.query];
    const Nanoseconds arrival = queries[e.query].arrival_ns;
    if (s.terminal != Terminal::kPending) return;
    s.terminal = Terminal::kTimedOut;
    ++report.timed_out;
    policy.OnOutcome({arrival, 0.0, false});
    if (elog != nullptr) {
      obs::SchedEvent ev;
      ev.time_ns = e.time;
      ev.kind = obs::SchedEventKind::kDeadlineMiss;
      ev.query = e.query;
      ev.attempt = s.admitted;
      ev.value = options.deadline_ns;
      elog->Append(std::move(ev));
    }
  };

  // ---- Event loop ------------------------------------------------------
  // Two sources merge in (time, seq) order: original admissions straight
  // from the sorted stream, and the heap. An original takes a time tie,
  // as it would as a heap event: originals would hold seqs 0..n-1, ahead
  // of everything scheduled during the run.
  std::size_t next_original = 0;
  while (next_original < queries.size() || !events.empty()) {
    Event e;
    if (next_original < queries.size() &&
        (events.empty() ||
         queries[next_original].arrival_ns <= events.top().time)) {
      e.time = queries[next_original].arrival_ns;
      e.query = next_original++;
    } else {
      e = events.top();
      events.pop();
    }
    drain_until(e.time);
    run_probes(e.time);
    switch (e.kind) {
      case EventKind::kAdmission:
        handle_admission(e);
        break;
      case EventKind::kTimeout:
        handle_timeout(e);
        break;
      case EventKind::kDeadline:
        handle_deadline(e);
        break;
    }
  }
  for (std::size_t b = 0; b < n_backends; ++b) {
    backend_scratch.clear();
    backends[b]->Finalize(backend_scratch);
    for (const SchedCompletion& c : backend_scratch) {
      step.push_back({c.completion_ns, c.query_id, b});
    }
  }
  deliver();

  // The never-drop invariant, enforced, not just reported: everything
  // admitted at least once was flushed by Finalize above, so no query can
  // still be pending.
  for (const QueryState& s : states) {
    MICROREC_CHECK(s.terminal != Terminal::kPending);
  }

  // ---- Report: percentiles over served queries, SLO over all offered ----
  std::vector<Nanoseconds> served_arrivals;
  std::vector<Nanoseconds> served_completions;
  std::vector<obs::QueryOutcome> outcomes;
  outcomes.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const QueryState& s = states[i];
    obs::QueryOutcome outcome;
    outcome.arrival_ns = queries[i].arrival_ns;
    outcome.served = s.terminal == Terminal::kServed;
    if (outcome.served) {
      outcome.latency_ns = s.completion - outcome.arrival_ns;
      served_arrivals.push_back(outcome.arrival_ns);
      served_completions.push_back(s.completion);
    }
    outcomes.push_back(outcome);
  }

  report.base.offered = queries.size();
  report.base.served = served_arrivals.size();
  report.base.shed = report.base.offered - report.base.served;
  report.base.availability = static_cast<double>(report.base.served) /
                             static_cast<double>(report.base.offered);
  if (!served_arrivals.empty()) {
    report.base.serving = SummarizeServing(served_arrivals, served_completions,
                                           options.base.sla_ns);
  }
  const Nanoseconds span =
      queries.back().arrival_ns - queries.front().arrival_ns;
  const obs::SloSpec spec = obs::SloSpec::Default(
      options.base.sla_ns, options.base.slo_objective, span > 0.0 ? span : 1.0);
  report.base.slo = obs::EvaluateSlo(spec, outcomes);

  for (const CircuitBreaker& breaker : breakers) {
    report.breaker_opens += breaker.opens();
    report.breaker_closes += breaker.closes();
  }
  if (options.outcomes != nullptr) *options.outcomes = std::move(outcomes);
  return report;
}

SchedReport ServeOnBackend(const std::vector<Nanoseconds>& arrivals,
                           std::unique_ptr<Backend> backend,
                           Nanoseconds sla_ns,
                           std::vector<obs::QueryOutcome>* outcomes) {
  std::vector<std::unique_ptr<Backend>> fleet;
  fleet.push_back(std::move(backend));
  const auto policy =
      MakeStaticPolicy(0, "static:" + std::string(fleet[0]->name()));
  FtOptions options;
  options.base.sla_ns = sla_ns;
  options.outcomes = outcomes;
  return SimulateFaultTolerantServing(SingleItemQueries(arrivals), fleet,
                                      *policy, options)
      .base;
}

}  // namespace microrec::sched
