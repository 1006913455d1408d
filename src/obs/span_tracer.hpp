// Per-query span tracing emitted as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// The simulators run on virtual time, so spans carry simulated-nanosecond
// timestamps, not wall clock: a trace of a serving run shows exactly where
// each sampled query's microseconds went -- pipeline stage by stage,
// embedding round by round, bank access by bank access.
//
// Track model: a track (Chrome "tid") is any serialized resource -- one per
// pipeline stage, one per memory bank -- so complete spans on a track never
// overlap. Cross-track per-query context uses async spans ("b"/"e" events
// keyed by query id), which Perfetto renders as a separate async lane.
//
// Overhead contract: instrumentation sites hold a `SpanTracer*` that is
// nullptr when tracing is off, and every emit funnels through an inline
// null check -- the disabled path is a compare-and-branch, and simulator
// *results* are bit-for-bit identical with tracing enabled, disabled, or
// absent (asserted by the identity gate in obs_test, the same guarantee the
// fault injector makes). Sampling (1-in-N queries) is deterministic in the
// query index, never random.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace microrec::obs {

struct TracerOptions {
  /// Trace every Nth query (1 = every query). Must be >= 1.
  std::uint32_t sample_every = 1;
  std::string process_name = "microrec-sim";
};

/// Chrome "tid": one serialized resource (stage, bank, ...).
using TrackId = std::uint32_t;

/// Sentinel for spans not attributed to any particular query.
inline constexpr std::uint64_t kNoQuery = ~std::uint64_t{0};

/// What resource a track models; attribution walks stage tracks for the
/// serial critical path and bank tracks for the parallel lookup fan-out.
enum class TrackKind : std::uint8_t {
  kOther = 0,
  kStage,
  kBank,
};

class SpanTracer {
 public:
  explicit SpanTracer(TracerOptions opts = {});

  /// Deterministic 1-in-N sampling by query index.
  bool SampleQuery(std::uint64_t query_index) const {
    return query_index % opts_.sample_every == 0;
  }
  const TracerOptions& options() const { return opts_; }

  /// Names a track in the viewer (emits a thread_name metadata event) and
  /// for in-memory consumers (track_name below).
  void SetTrackName(TrackId track, const std::string& name);
  /// Last name set for the track; "track <N>" when never named.
  std::string track_name(TrackId track) const;

  /// Declares what resource a track models (default kOther). Purely an
  /// annotation for in-memory consumers; not emitted to Chrome JSON.
  void SetTrackKind(TrackId track, TrackKind kind);
  TrackKind track_kind(TrackId track) const;

  /// One closed span on `track`. Spans tagged with a query index feed
  /// critical-path attribution and show up in the viewer as args.query.
  void CompleteSpan(TrackId track, std::string name, Nanoseconds start_ns,
                    Nanoseconds end_ns, std::uint64_t query = kNoQuery);

  /// Cross-track span keyed by `id` (e.g. a query's end-to-end latency
  /// while its stages run on other tracks). Emitted as async "b"/"e".
  void AsyncSpan(std::string name, std::uint64_t id, Nanoseconds start_ns,
                 Nanoseconds end_ns);

  std::size_t num_events() const { return events_.size(); }

  /// Read-only view of one recorded complete ('X') span. The name view
  /// borrows from the tracer; it stays valid until more events are added.
  struct SpanView {
    TrackId track = 0;
    std::string_view name;
    Nanoseconds start_ns = 0.0;
    Nanoseconds dur_ns = 0.0;
    std::uint64_t query = kNoQuery;
  };
  /// One recorded async ('b'/'e') span, paired by id.
  struct AsyncView {
    std::uint64_t id = 0;
    std::string_view name;
    Nanoseconds start_ns = 0.0;
    Nanoseconds end_ns = 0.0;
  };

  /// In-memory access for analysis (attribution) without a JSON round
  /// trip. Complete spans come back in emission order.
  std::vector<SpanView> CompleteSpans() const;
  std::vector<AsyncView> AsyncSpans() const;

  /// The full document: {"traceEvents": [...], ...}.
  void WriteChromeJson(std::ostream& out) const;
  std::string ToChromeJson() const;

 private:
  struct Event {
    char phase = 'X';  // X = complete, b/e = async, M = metadata
    TrackId track = 0;
    std::string name;
    Nanoseconds ts_ns = 0.0;
    Nanoseconds dur_ns = 0.0;
    std::uint64_t id = 0;  // async span id
    std::uint64_t query = kNoQuery;
  };
  TracerOptions opts_;
  std::vector<Event> events_;
  std::vector<TrackKind> track_kinds_;    // indexed by track
  std::vector<std::string> track_names_;  // indexed by track
};

/// The bundle instrumentation points carry: any member may be null, and
/// an all-null bundle is indistinguishable from no telemetry at all.
class MetricsRegistry;
class TimeSeriesRecorder;
struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  SpanTracer* tracer = nullptr;
  TimeSeriesRecorder* timeseries = nullptr;

  bool active() const {
    return metrics != nullptr || tracer != nullptr || timeseries != nullptr;
  }
};

}  // namespace microrec::obs
