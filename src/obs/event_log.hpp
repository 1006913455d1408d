// Decision-level flight recorder for the serving scheduler: a bounded,
// deterministic ring buffer of typed structured events.
//
// Aggregate histograms answer "how bad was the tail"; the event log
// answers "why": every admit, routing decision (with the per-backend
// scores and queue depths the policy saw at that instant), retry, hedge,
// cancellation, shed, circuit-breaker transition, fault window, and
// deadline miss, each stamped with simulated time and a per-log sequence
// number so the whole run replays as a total order. The scheduler takes
// an optional EventLog*; with none attached nothing is recorded and the
// simulation is bit-for-bit identical (the same identity discipline as
// SpanTracer and MetricsRegistry, gated in tests/chaos_test.cpp).
//
// The ring is bounded: Append past capacity evicts the oldest-appended
// event and counts it in dropped(), so a recorder can ride along any run
// length with fixed memory.
//
// obs/explain.hpp consumes a log: per-query causal timelines, ranked
// worst offenders, and SLO-alert-triggered postmortem snapshots.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/span_tracer.hpp"  // for kNoQuery, the shared query-id sentinel

namespace microrec::obs {

class JsonWriter;

/// Event vocabulary. Admission-path kinds carry a query id; breaker and
/// fault kinds carry only a backend. Exactly one terminal kind closes
/// every offered query's timeline: kServe, kHedgeWin (a serve whose
/// winning attempt was the hedge), kShed, or kDeadlineMiss.
enum class SchedEventKind : std::uint8_t {
  kAdmit,           ///< an attempt was dispatched to `backend`
  kRoute,           ///< a routing decision, with per-backend probes
  kAttemptTimeout,  ///< a dispatched attempt was abandoned
  kRetry,           ///< a re-admission was scheduled (value = backoff ns)
  kHedgeIssue,      ///< a hedge admission was scheduled (value = delay ns)
  kHedgeWin,        ///< terminal: served, the hedge finished first
  kServe,           ///< terminal: served by a non-hedge attempt
  kCancel,          ///< a completion arrived for an already-resolved query
  kShed,            ///< terminal: never admitted (label names the reason)
  kBreakerOpen,     ///< breaker tripped open (value = reopen time)
  kBreakerHalfOpen, ///< cool-down elapsed, trial window opened
  kBreakerClose,    ///< trial successes closed the breaker
  kFaultBegin,      ///< injected fault window starts (label = fault kind)
  kFaultEnd,        ///< injected fault window ends
  kDeadlineMiss,    ///< terminal: still pending at arrival + deadline
};

const char* SchedEventKindName(SchedEventKind kind);
StatusOr<SchedEventKind> ParseSchedEventKind(std::string_view name);

/// SchedEvent::query shares span_tracer.hpp's kNoQuery sentinel (breaker
/// and fault events carry no query id).
inline constexpr std::int32_t kNoBackend = -1;

/// One backend's decision signals at a routing instant, captured by
/// sched::CollectBackendProbes from the same pure probes the policies
/// rank on.
struct BackendProbe {
  double score_ns = 0.0;  ///< PredictLatency: backlog + modeled service
  double queue_ns = 0.0;  ///< raw backlog (QueueDepthNs)
  bool accepting = false;
  bool admissible = false;  ///< passed the scheduler's admission filter
  /// sched::BreakerState as an int at decision time; -1 = breakers off.
  std::int8_t breaker = -1;
};

struct SchedEvent {
  Nanoseconds time_ns = 0.0;
  std::uint64_t seq = 0;  ///< assigned by Append; (time_ns, seq) totally orders
  SchedEventKind kind = SchedEventKind::kAdmit;
  std::uint64_t query = kNoQuery;
  std::uint32_t attempt = 0;  ///< 0 = original admission, k = k-th retry
  bool hedge = false;
  std::int32_t backend = kNoBackend;
  /// kRoute only: the routing policy's unconstrained pick.
  std::int32_t preferred = kNoBackend;
  /// Kind-specific magnitude: reopen time (breaker-open), backoff (retry),
  /// hedge delay, served latency, fault magnitude, deadline length.
  double value = 0.0;
  /// Kind-specific text: shed reason, fault kind, "forced" admits,
  /// why-no-retry annotations.
  std::string label;
  /// kRoute only, one entry per fleet backend.
  std::vector<BackendProbe> probes;
};

class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 18;

  explicit EventLog(std::size_t capacity = kDefaultCapacity);

  /// Appends (assigning the next sequence number); evicts the
  /// oldest-appended event once `capacity` is reached.
  void Append(SchedEvent event);

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_appended() const { return appended_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Events in append order. Append order is almost but not exactly time
  /// order (health probes and pre-registered fault windows interleave);
  /// consumers wanting the causal order use Sorted().
  const std::deque<SchedEvent>& events() const { return events_; }

  /// Stable copy ordered by (time_ns, seq) -- the causal replay order.
  std::vector<SchedEvent> Sorted() const;

  /// Fleet backend names, index-aligned with SchedEvent::backend.
  void set_backend_names(std::vector<std::string> names) {
    backend_names_ = std::move(names);
  }
  const std::vector<std::string>& backend_names() const {
    return backend_names_;
  }
  /// Name for a backend index; the index digits when unnamed or out of
  /// range (a log without names stays explainable).
  std::string BackendName(std::int32_t index) const;

  /// Serializes the log (events in Sorted() order, default-valued fields
  /// omitted). Deterministic: equal logs produce equal bytes.
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;
  /// Parses ToJson output. Append order of the original is not preserved
  /// (events come back sorted); everything else round-trips.
  static StatusOr<EventLog> FromJson(std::string_view text);

 private:
  std::size_t capacity_ = kDefaultCapacity;
  std::deque<SchedEvent> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> backend_names_;
};

/// Serializes one event as a JSON object (default-valued fields omitted)
/// -- the shared event schema of EventLog::ToJson and the postmortem
/// snapshots in obs/explain.hpp.
void WriteSchedEventJson(JsonWriter& w, const SchedEvent& e);

}  // namespace microrec::obs
