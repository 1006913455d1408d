// Unified execution-backend abstraction for multi-path query scheduling.
//
// The repo has three ways to serve a recommendation query -- the MicroRec
// item-streaming pipeline (optionally a fault-degraded replica pool), the
// batched CPU baseline, and the hot-cache fast path. This interface makes
// them interchangeable targets behind one contract so a scheduler can
// choose *per query*, which is what DeepRecSys- and MP-Rec-style serving
// systems do and what the roadmap needs before parameter-server and NMP
// tiers can slot in as "just another backend".
//
// The contract is simulated-time and strictly deterministic:
//
//   * Admit(query) hands the backend one query at its arrival time.
//     Arrival times are nondecreasing across calls. Returning false means
//     the backend cannot serve the query at all right now (e.g. every
//     replica of a degraded pool is down) and the scheduler counts a shed.
//   * Completions surface through Drain(now) / Finalize() rather than from
//     Admit, because a batched backend genuinely cannot know a query's
//     completion at admit time (its batch may still grow). Both emit
//     completions sorted by (completion time, query id), so merging the
//     streams of several backends is a total order and every downstream
//     consumer -- policy feedback, SLO evaluation, reports -- is
//     reproducible bit for bit.
//   * NextDueNs() bounds Drain from below: at any now < NextDueNs(),
//     Drain(now) emits nothing and changes nothing a probe can see, so the
//     serving loop drains only backends that are due. Completions already
//     resolved count, and so does any state change Drain would make (the
//     batched backend launching a batch).
//   * The cost model and queue-depth probes are pure: calling them any
//     number of times never changes a simulation result. Policies rely on
//     this to rank backends without perturbing them.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace microrec::sched {

/// One query offered to the scheduler. `items` is the number of candidate
/// items the query scores (the paper's inference batch dimension);
/// `lookups_per_item` is the embedding-table lookups each item performs.
struct SchedQuery {
  std::uint64_t id = 0;
  Nanoseconds arrival_ns = 0.0;
  std::uint64_t items = 1;
  std::uint64_t lookups_per_item = 1;
};

/// A served query's completion, emitted by Drain/Finalize. It carries the
/// arrival that Admit saw, so a wrapper can anchor per-query transforms
/// without keeping its own table of in-flight queries.
struct SchedCompletion {
  std::uint64_t query_id = 0;
  Nanoseconds completion_ns = 0.0;
  Nanoseconds admit_ns = 0.0;
};

/// Linear expected-service-time model every backend exposes:
///
///   service(items, lookups_per_item) =
///       fixed_ns + items * (per_item_ns + lookups_per_item * per_lookup_ns)
///
/// `fixed_ns` absorbs per-dispatch costs that do not scale with the query
/// (framework operator overhead, expected batch-aggregation wait, pipeline
/// fill); the marginal terms capture how the backend scales with query
/// size. Policies use this to predict where a query finishes soonest; the
/// model is an *expectation*, not a guarantee -- actual completions come
/// from the backend's state machine.
struct BackendCostModel {
  Nanoseconds fixed_ns = 0.0;
  Nanoseconds per_item_ns = 0.0;
  Nanoseconds per_lookup_ns = 0.0;

  Nanoseconds ServiceTime(std::uint64_t items,
                          std::uint64_t lookups_per_item) const {
    return fixed_ns +
           static_cast<double>(items) *
               (per_item_ns +
                static_cast<double>(lookups_per_item) * per_lookup_ns);
  }
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string_view name() const = 0;

  /// Current expected-service-time model. Backends may refine coefficients
  /// as they observe traffic (the hot-cache path tracks its hit rate), so
  /// the reference is only valid until the next Admit.
  virtual const BackendCostModel& cost_model() const = 0;

  /// Sustained throughput ceiling in items per second.
  virtual double capacity_items_per_s() const = 0;

  /// Backlog a query arriving at `now` queues behind, in simulated ns of
  /// work (0 when the backend is idle). This is the congestion signal for
  /// queue-depth-aware policies.
  virtual Nanoseconds QueueDepthNs(Nanoseconds now) const = 0;

  /// Whether the backend can serve a query arriving at `now` at all.
  /// Degraded pools go dark while every replica is down; healthy backends
  /// always accept.
  virtual bool Accepting(Nanoseconds /*now*/) const { return true; }

  /// Expected latency were `q` admitted here: queueing plus modeled
  /// service time. Pure, like the probes it composes.
  Nanoseconds PredictLatency(const SchedQuery& q) const {
    return QueueDepthNs(q.arrival_ns) +
           cost_model().ServiceTime(q.items, q.lookups_per_item);
  }

  /// Accepts the query for execution (arrivals nondecreasing across
  /// calls). Returns false when the query is unservable (shed).
  virtual bool Admit(const SchedQuery& q) = 0;

  /// Earliest `now` at which Drain could emit a completion or launch
  /// work: +inf when nothing is in flight, -inf when any Drain may act.
  /// Pure, like the probes.
  virtual Nanoseconds NextDueNs() const = 0;

  /// Appends every completion with completion_ns <= now, sorted by
  /// (completion time, query id).
  virtual void Drain(Nanoseconds now, std::vector<SchedCompletion>& out) = 0;

  /// Flushes all in-flight work unconditionally (end of input), appending
  /// the remaining completions in the same sorted order.
  virtual void Finalize(std::vector<SchedCompletion>& out) = 0;
};

/// Min-heap of resolved completions ordered by (completion time, query
/// id). Backends whose state machines resolve completions out of emission
/// order (multiple replicas, multiple batch servers) push here and drain
/// in sorted order, which is what makes the Drain contract cheap to honor.
class CompletionQueue {
 public:
  void Push(std::uint64_t query_id, Nanoseconds completion_ns,
            Nanoseconds admit_ns) {
    heap_.push({query_id, completion_ns, admit_ns});
  }

  std::size_t size() const { return heap_.size(); }

  /// Earliest queued completion time; +inf when empty.
  Nanoseconds EarliestNs() const {
    return heap_.empty() ? std::numeric_limits<Nanoseconds>::infinity()
                         : heap_.top().completion_ns;
  }

  /// Pops everything with completion <= now into `out`, in order.
  void DrainUntil(Nanoseconds now, std::vector<SchedCompletion>& out) {
    while (!heap_.empty() && heap_.top().completion_ns <= now) {
      out.push_back(heap_.top());
      heap_.pop();
    }
  }

  /// Pops everything, in order.
  void DrainAll(std::vector<SchedCompletion>& out) {
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
  }

 private:
  struct Later {
    bool operator()(const SchedCompletion& a, const SchedCompletion& b) const {
      if (a.completion_ns != b.completion_ns) {
        return a.completion_ns > b.completion_ns;
      }
      return a.query_id > b.query_id;
    }
  };
  std::priority_queue<SchedCompletion, std::vector<SchedCompletion>, Later>
      heap_;
};

}  // namespace microrec::sched
