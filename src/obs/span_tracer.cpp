#include "obs/span_tracer.hpp"

#include <sstream>

#include "common/status.hpp"
#include "obs/json_writer.hpp"

namespace microrec::obs {

SpanTracer::SpanTracer(TracerOptions opts) : opts_(std::move(opts)) {
  MICROREC_CHECK(opts_.sample_every >= 1);
}

void SpanTracer::SetTrackName(TrackId track, const std::string& name) {
  if (track_names_.size() <= track) track_names_.resize(track + 1);
  track_names_[track] = name;
  Event e;
  e.phase = 'M';
  e.track = track;
  e.name = name;
  events_.push_back(std::move(e));
}

std::string SpanTracer::track_name(TrackId track) const {
  if (track < track_names_.size() && !track_names_[track].empty()) {
    return track_names_[track];
  }
  return "track " + std::to_string(track);
}

void SpanTracer::SetTrackKind(TrackId track, TrackKind kind) {
  if (track_kinds_.size() <= track) {
    track_kinds_.resize(track + 1, TrackKind::kOther);
  }
  track_kinds_[track] = kind;
}

TrackKind SpanTracer::track_kind(TrackId track) const {
  return track < track_kinds_.size() ? track_kinds_[track] : TrackKind::kOther;
}

void SpanTracer::CompleteSpan(TrackId track, std::string name,
                              Nanoseconds start_ns, Nanoseconds end_ns,
                              std::uint64_t query) {
  MICROREC_CHECK(end_ns >= start_ns);
  Event e;
  e.phase = 'X';
  e.track = track;
  e.name = std::move(name);
  e.ts_ns = start_ns;
  e.dur_ns = end_ns - start_ns;
  e.query = query;
  events_.push_back(std::move(e));
}

void SpanTracer::AsyncSpan(std::string name, std::uint64_t id,
                           Nanoseconds start_ns, Nanoseconds end_ns) {
  MICROREC_CHECK(end_ns >= start_ns);
  Event begin;
  begin.phase = 'b';
  begin.name = name;
  begin.ts_ns = start_ns;
  begin.id = id;
  events_.push_back(std::move(begin));
  Event end;
  end.phase = 'e';
  end.name = std::move(name);
  end.ts_ns = end_ns;
  end.id = id;
  events_.push_back(std::move(end));
}

std::vector<SpanTracer::SpanView> SpanTracer::CompleteSpans() const {
  std::vector<SpanView> spans;
  for (const Event& e : events_) {
    if (e.phase != 'X') continue;
    spans.push_back(SpanView{e.track, e.name, e.ts_ns, e.dur_ns, e.query});
  }
  return spans;
}

std::vector<SpanTracer::AsyncView> SpanTracer::AsyncSpans() const {
  // AsyncSpan pushes the 'b'/'e' pair back to back, so a 'b' is always
  // immediately followed by its matching 'e'.
  std::vector<AsyncView> spans;
  for (std::size_t i = 0; i + 1 < events_.size(); ++i) {
    const Event& b = events_[i];
    if (b.phase != 'b') continue;
    const Event& e = events_[i + 1];
    MICROREC_CHECK(e.phase == 'e' && e.id == b.id);
    spans.push_back(AsyncView{b.id, b.name, b.ts_ns, e.ts_ns});
  }
  return spans;
}

void SpanTracer::WriteChromeJson(std::ostream& out) const {
  JsonWriter w(out, /*indent=*/0);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();

  // Process metadata, then the events in emission order. Chrome trace "ts"
  // and "dur" are microseconds; fractional values carry the simulator's
  // sub-ns resolution.
  w.BeginObject();
  w.KV("name", "process_name");
  w.KV("ph", "M");
  w.KV("pid", 1);
  w.KV("tid", 0);
  w.Key("args");
  w.BeginObject();
  w.KV("name", opts_.process_name);
  w.EndObject();
  w.EndObject();

  for (const auto& e : events_) {
    w.BeginObject();
    switch (e.phase) {
      case 'M':
        w.KV("name", "thread_name");
        w.KV("ph", "M");
        w.KV("pid", 1);
        w.KV("tid", e.track);
        w.Key("args");
        w.BeginObject();
        w.KV("name", e.name);
        w.EndObject();
        break;
      case 'X':
        w.KV("name", e.name);
        w.KV("cat", "sim");
        w.KV("ph", "X");
        w.KV("ts", e.ts_ns / 1000.0);
        w.KV("dur", e.dur_ns / 1000.0);
        w.KV("pid", 1);
        w.KV("tid", e.track);
        if (e.query != kNoQuery) {
          w.Key("args");
          w.BeginObject();
          w.KV("query", e.query);
          w.EndObject();
        }
        break;
      case 'b':
      case 'e': {
        w.KV("name", e.name);
        w.KV("cat", "query");
        w.KV("ph", std::string(1, e.phase));
        w.KV("ts", e.ts_ns / 1000.0);
        w.KV("pid", 1);
        w.KV("tid", 0);
        std::ostringstream id;
        id << "0x" << std::hex << e.id;
        w.KV("id", id.str());
        break;
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.KV("displayTimeUnit", "ns");
  w.EndObject();
  out << "\n";
}

std::string SpanTracer::ToChromeJson() const {
  std::ostringstream os;
  WriteChromeJson(os);
  return os.str();
}

}  // namespace microrec::obs
