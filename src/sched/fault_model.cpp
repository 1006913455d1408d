#include "sched/fault_model.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "obs/event_log.hpp"

namespace microrec::sched {

Nanoseconds FaultInjectedBackend::QueueDepthNs(Nanoseconds now) const {
  const Nanoseconds base = inner_->QueueDepthNs(now);
  if (model_.empty()) return base;
  Nanoseconds depth = base * model_.LatencyScale(now);
  const Nanoseconds stall_end = model_.StallEnd(now);
  if (stall_end > now) depth = std::max(depth, stall_end - now);
  return depth;
}

bool FaultInjectedBackend::Accepting(Nanoseconds now) const {
  if (!model_.empty() && model_.Crashed(now)) return false;
  return inner_->Accepting(now);
}

bool FaultInjectedBackend::Admit(const SchedQuery& q) {
  if (model_.empty()) return inner_->Admit(q);
  if (model_.Crashed(q.arrival_ns)) {
    ++crash_rejects_;
    return false;
  }
  return inner_->Admit(q);
}

void FaultInjectedBackend::Transform(std::vector<SchedCompletion>& raw) {
  for (const SchedCompletion& c : raw) {
    const Nanoseconds admit = c.admit_ns;
    Nanoseconds t = c.completion_ns;
    // Brownout: the window covering the admit stretches the whole
    // residence time (queueing inside the inner machine included). The
    // scale == 1.0 fast path keeps un-faulted queries bit-identical.
    const double scale = model_.LatencyScale(admit);
    if (scale != 1.0) t = admit + (t - admit) * scale;
    // Stall: a completion landing inside a stall window waits it out.
    const Nanoseconds stall_end = model_.StallEnd(t);
    if (stall_end > t) t = stall_end;
    done_.Push(c.query_id, t, admit);
  }
  raw.clear();
}

void FaultInjectedBackend::Drain(Nanoseconds now,
                                 std::vector<SchedCompletion>& out) {
  if (model_.empty()) {
    inner_->Drain(now, out);
    return;
  }
  // Both transforms only ever move completions later, so every transformed
  // completion <= now has an inner completion <= now: draining the inner
  // machine at `now` misses nothing.
  scratch_.clear();
  inner_->Drain(now, scratch_);
  Transform(scratch_);
  done_.DrainUntil(now, out);
}

void FaultInjectedBackend::Finalize(std::vector<SchedCompletion>& out) {
  if (model_.empty()) {
    inner_->Finalize(out);
    return;
  }
  scratch_.clear();
  inner_->Finalize(scratch_);
  Transform(scratch_);
  done_.DrainAll(out);
}

std::vector<std::unique_ptr<Backend>> WrapFleetWithFaults(
    std::vector<std::unique_ptr<Backend>> fleet,
    const std::vector<FaultSchedule>& schedules) {
  MICROREC_CHECK(fleet.size() == schedules.size());
  std::vector<std::unique_ptr<Backend>> wrapped;
  wrapped.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    wrapped.push_back(std::make_unique<FaultInjectedBackend>(
        std::move(fleet[i]),
        BackendFaultModel(schedules[i], static_cast<std::uint32_t>(i))));
  }
  return wrapped;
}

void AppendFaultWindowEvents(const FaultSchedule& schedule,
                             std::size_t backend_index, obs::EventLog& log) {
  for (const FaultEvent& f : schedule.events()) {
    obs::SchedEvent begin;
    begin.time_ns = f.start_ns;
    begin.kind = obs::SchedEventKind::kFaultBegin;
    begin.backend = static_cast<std::int32_t>(backend_index);
    begin.label = FaultKindName(f.kind);
    begin.value = f.magnitude;
    log.Append(std::move(begin));

    obs::SchedEvent end;
    end.time_ns = f.end_ns;
    end.kind = obs::SchedEventKind::kFaultEnd;
    end.backend = static_cast<std::int32_t>(backend_index);
    end.label = FaultKindName(f.kind);
    log.Append(std::move(end));
  }
}

}  // namespace microrec::sched
