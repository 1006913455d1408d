// Fault injection for ANY scheduler backend.
//
// A PipelineBackend's own fault schedule crashes or slows individual
// replicas; every other path is structurally immortal, so on its own no
// policy could be tested against the scenario the fleet actually fears --
// the low-latency path crashing, the throughput path browning out, the
// cache path stalling. BackendFaultModel reads one backend's fault
// timeline out of a seeded faults::FaultSchedule (the same schedule type
// replica injection uses), and FaultInjectedBackend applies it to any
// Backend behind the unchanged Backend contract:
//
//   * kReplicaCrash  (target = backend id): the backend goes dark -- it
//     stops Accepting and Admit sheds -- for the window.
//   * kChannelDegrade (target = backend id): a brownout. Queries admitted
//     inside the window complete at `magnitude` x their healthy latency
//     (completion' = admit + (completion - admit) * magnitude), and the
//     queue-depth probe scales so policies see the slowdown.
//   * kDmaStall (target = backend id): the completion path freezes.
//     Completions that would land inside the window are deferred to its
//     end; the probe reports at least the remaining stall time.
//
// With an empty schedule every method forwards untouched -- not just
// semantically but bit for bit (no arithmetic touches the inner times),
// which is what keeps the zero-fault chaos-sweep point identical to the
// healthy scheduler and is gated by tests/chaos_test.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "sched/backend.hpp"

namespace microrec::obs {
class EventLog;
}

namespace microrec::sched {

/// Point-query view of one backend's fault timeline: the slice of a
/// FaultSchedule whose events target backend `target`.
class BackendFaultModel {
 public:
  /// Always-healthy model.
  BackendFaultModel() = default;
  BackendFaultModel(FaultSchedule schedule, std::uint32_t target)
      : schedule_(std::move(schedule)), target_(target) {}

  bool empty() const { return schedule_.empty(); }
  std::uint32_t target() const { return target_; }
  const FaultSchedule& schedule() const { return schedule_; }

  /// True while a kReplicaCrash window covers (target, now).
  bool Crashed(Nanoseconds now) const {
    return !schedule_.ReplicaAlive(target_, now);
  }

  /// Product of kChannelDegrade multipliers covering (target, now);
  /// exactly 1.0 when none does.
  double LatencyScale(Nanoseconds now) const {
    return schedule_.BankLatencyMultiplier(target_, now);
  }

  /// End of the latest kDmaStall window covering (target, now), or `now`
  /// itself when the completion path is live.
  Nanoseconds StallEnd(Nanoseconds now) const {
    return schedule_.StallEnd(target_, now);
  }

 private:
  FaultSchedule schedule_;
  std::uint32_t target_ = 0;
};

/// Wraps a Backend with a BackendFaultModel. The wrapper's only mutable
/// state is a re-sorting completion queue (scaled completions can change
/// order); the brownout anchors on the admit time each completion carries.
/// The inner state machine runs exactly as it would healthy; faults
/// transform its *outputs*.
class FaultInjectedBackend : public Backend {
 public:
  FaultInjectedBackend(std::unique_ptr<Backend> inner,
                       BackendFaultModel model)
      : inner_(std::move(inner)), model_(std::move(model)) {}

  std::string_view name() const override { return inner_->name(); }
  const BackendCostModel& cost_model() const override {
    return inner_->cost_model();
  }
  double capacity_items_per_s() const override {
    return inner_->capacity_items_per_s();
  }

  Nanoseconds QueueDepthNs(Nanoseconds now) const override;
  bool Accepting(Nanoseconds now) const override;
  bool Admit(const SchedQuery& q) override;
  /// The inner machine's bound or the earliest transformed completion,
  /// whichever is sooner (both transforms only delay completions).
  Nanoseconds NextDueNs() const override {
    return std::min(inner_->NextDueNs(), done_.EarliestNs());
  }
  void Drain(Nanoseconds now, std::vector<SchedCompletion>& out) override;
  void Finalize(std::vector<SchedCompletion>& out) override;

  const BackendFaultModel& model() const { return model_; }
  /// Admits rejected because the backend was crashed at the arrival.
  std::uint64_t crash_rejects() const { return crash_rejects_; }

 private:
  /// Applies brownout + stall to completions the inner machine resolved.
  void Transform(std::vector<SchedCompletion>& raw);

  std::unique_ptr<Backend> inner_;
  BackendFaultModel model_;
  CompletionQueue done_;
  std::vector<SchedCompletion> scratch_;
  std::uint64_t crash_rejects_ = 0;
};

/// Wraps fleet[i] with schedules[i] (sizes must match). Backends with an
/// empty schedule are still wrapped, which keeps the fleet shape uniform;
/// the wrapper is a bit-exact passthrough in that case.
std::vector<std::unique_ptr<Backend>> WrapFleetWithFaults(
    std::vector<std::unique_ptr<Backend>> fleet,
    const std::vector<FaultSchedule>& schedules);

/// Pre-registers backend `backend_index`'s fault windows into the flight
/// recorder as kFaultBegin / kFaultEnd events (label = fault kind, value =
/// magnitude). Fault schedules are fixed before the run, so the windows go
/// in up front instead of through the event loop -- the recorder's
/// Sorted() order interleaves them with the decisions they caused.
void AppendFaultWindowEvents(const FaultSchedule& schedule,
                             std::size_t backend_index, obs::EventLog& log);

}  // namespace microrec::sched
