#include "obs/event_log.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"

namespace microrec::obs {

namespace {

struct KindName {
  SchedEventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {SchedEventKind::kAdmit, "admit"},
    {SchedEventKind::kRoute, "route"},
    {SchedEventKind::kAttemptTimeout, "attempt-timeout"},
    {SchedEventKind::kRetry, "retry"},
    {SchedEventKind::kHedgeIssue, "hedge-issue"},
    {SchedEventKind::kHedgeWin, "hedge-win"},
    {SchedEventKind::kServe, "serve"},
    {SchedEventKind::kCancel, "cancel"},
    {SchedEventKind::kShed, "shed"},
    {SchedEventKind::kBreakerOpen, "breaker-open"},
    {SchedEventKind::kBreakerHalfOpen, "breaker-half-open"},
    {SchedEventKind::kBreakerClose, "breaker-close"},
    {SchedEventKind::kFaultBegin, "fault-begin"},
    {SchedEventKind::kFaultEnd, "fault-end"},
    {SchedEventKind::kDeadlineMiss, "deadline-miss"},
};

}  // namespace

const char* SchedEventKindName(SchedEventKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "?";
}

StatusOr<SchedEventKind> ParseSchedEventKind(std::string_view name) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) return entry.kind;
  }
  return Status::InvalidArgument("unknown event kind '" + std::string(name) +
                                 "'");
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void EventLog::Append(SchedEvent event) {
  event.seq = next_seq_++;
  ++appended_;
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(event));
}

std::vector<SchedEvent> EventLog::Sorted() const {
  std::vector<SchedEvent> sorted(events_.begin(), events_.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SchedEvent& a, const SchedEvent& b) {
                     if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
                     return a.seq < b.seq;
                   });
  return sorted;
}

std::string EventLog::BackendName(std::int32_t index) const {
  if (index >= 0 &&
      static_cast<std::size_t>(index) < backend_names_.size()) {
    return backend_names_[static_cast<std::size_t>(index)];
  }
  return index == kNoBackend ? std::string("-") : std::to_string(index);
}

void WriteSchedEventJson(JsonWriter& w, const SchedEvent& e) {
  w.BeginObject();
  w.KV("t", e.time_ns);
  w.KV("seq", e.seq);
  w.KV("kind", SchedEventKindName(e.kind));
  if (e.query != kNoQuery) w.KV("query", e.query);
  if (e.attempt != 0) w.KV("attempt", static_cast<std::uint64_t>(e.attempt));
  if (e.hedge) w.KV("hedge", true);
  if (e.backend != kNoBackend) w.KV("backend", e.backend);
  if (e.preferred != kNoBackend) w.KV("preferred", e.preferred);
  if (e.value != 0.0) w.KV("value", e.value);
  if (!e.label.empty()) w.KV("label", e.label);
  if (!e.probes.empty()) {
    w.Key("probes");
    w.BeginArray();
    for (const BackendProbe& p : e.probes) {
      w.BeginObject();
      w.KV("score_ns", p.score_ns);
      w.KV("queue_ns", p.queue_ns);
      w.KV("accepting", p.accepting);
      w.KV("admissible", p.admissible);
      w.KV("breaker", static_cast<std::int64_t>(p.breaker));
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
}

void EventLog::ToJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("backends");
  w.BeginArray();
  for (const std::string& name : backend_names_) w.Value(name);
  w.EndArray();
  w.KV("capacity", static_cast<std::uint64_t>(capacity_));
  w.KV("appended", appended_);
  w.KV("dropped", dropped_);
  w.Key("events");
  w.BeginArray();
  for (const SchedEvent& e : Sorted()) WriteSchedEventJson(w, e);
  w.EndArray();
  w.EndObject();
}

std::string EventLog::ToJson() const {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    ToJson(w);
  }
  os << "\n";
  return os.str();
}

namespace {

double NumberOr(const JsonValue& obj, std::string_view key, double fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

bool BoolOr(const JsonValue& obj, std::string_view key, bool fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

}  // namespace

StatusOr<EventLog> EventLog::FromJson(std::string_view text) {
  auto doc = JsonValue::Parse(text);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("event log: top level must be an object");
  }

  EventLog log(static_cast<std::size_t>(
      NumberOr(*doc, "capacity", static_cast<double>(kDefaultCapacity))));
  log.appended_ = static_cast<std::uint64_t>(NumberOr(*doc, "appended", 0.0));
  log.dropped_ = static_cast<std::uint64_t>(NumberOr(*doc, "dropped", 0.0));

  if (const JsonValue* backends = doc->Find("backends");
      backends != nullptr && backends->is_array()) {
    for (const JsonValue& name : backends->AsArray()) {
      if (!name.is_string()) {
        return Status::InvalidArgument("event log: backend names must be "
                                       "strings");
      }
      log.backend_names_.push_back(name.AsString());
    }
  }

  const JsonValue* events = doc->Find("events");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("event log: missing events array");
  }
  for (const JsonValue& entry : events->AsArray()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("event log: events must be objects");
    }
    const JsonValue* kind = entry.Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return Status::InvalidArgument("event log: event without a kind");
    }
    auto parsed_kind = ParseSchedEventKind(kind->AsString());
    if (!parsed_kind.ok()) return parsed_kind.status();

    SchedEvent e;
    e.kind = *parsed_kind;
    e.time_ns = NumberOr(entry, "t", 0.0);
    e.seq = static_cast<std::uint64_t>(NumberOr(entry, "seq", 0.0));
    e.query = static_cast<std::uint64_t>(
        NumberOr(entry, "query", static_cast<double>(kNoQuery)));
    e.attempt = static_cast<std::uint32_t>(NumberOr(entry, "attempt", 0.0));
    e.hedge = BoolOr(entry, "hedge", false);
    e.backend = static_cast<std::int32_t>(
        NumberOr(entry, "backend", static_cast<double>(kNoBackend)));
    e.preferred = static_cast<std::int32_t>(
        NumberOr(entry, "preferred", static_cast<double>(kNoBackend)));
    e.value = NumberOr(entry, "value", 0.0);
    if (const JsonValue* label = entry.Find("label");
        label != nullptr && label->is_string()) {
      e.label = label->AsString();
    }
    if (const JsonValue* probes = entry.Find("probes");
        probes != nullptr && probes->is_array()) {
      for (const JsonValue& probe : probes->AsArray()) {
        if (!probe.is_object()) {
          return Status::InvalidArgument("event log: probes must be objects");
        }
        BackendProbe p;
        p.score_ns = NumberOr(probe, "score_ns", 0.0);
        p.queue_ns = NumberOr(probe, "queue_ns", 0.0);
        p.accepting = BoolOr(probe, "accepting", false);
        p.admissible = BoolOr(probe, "admissible", false);
        p.breaker = static_cast<std::int8_t>(NumberOr(probe, "breaker", -1.0));
        e.probes.push_back(p);
      }
    }
    log.events_.push_back(std::move(e));
    log.next_seq_ = std::max(log.next_seq_, log.events_.back().seq + 1);
  }
  if (log.events_.size() > log.capacity_) log.capacity_ = log.events_.size();
  return log;
}

}  // namespace microrec::obs
