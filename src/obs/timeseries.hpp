// Fixed-bucket time series over *simulated* time: the temporal complement
// of the metrics registry. A Counter answers "how many in total"; a
// TimeSeries answers "when" -- per-channel utilization and queue-depth
// timelines bucketed on the simulator's virtual clock.
//
// Design mirrors Histogram: a bounded ring of buckets (memory is fixed no
// matter how long the run) and O(1) Observe. Two bucket kinds cover the two
// timeline shapes we need:
//   * kSum  -- additive occupancy (busy-ns per bucket);
//   * kMax  -- high-water marks (queue backlog per bucket).
//
// Same observation-only contract as the rest of obs/: instrumentation
// sites hold a `TimeSeriesRecorder*` that is nullptr when disabled, and
// nothing recorded here ever feeds back into simulation timing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace microrec::obs {

class JsonWriter;

enum class SeriesKind : std::uint8_t {
  kSum = 0,  ///< bucket accumulates (occupancy, bytes, counts)
  kMax = 1,  ///< bucket keeps the largest sample (backlog, depth)
};

const char* SeriesKindName(SeriesKind kind);

struct TimeSeriesOptions {
  /// Simulated-time width of one bucket.
  Nanoseconds bucket_ns = 1000.0;
  /// Ring capacity: the series keeps the most recent `num_buckets` buckets
  /// and counts anything older into dropped_samples().
  std::size_t num_buckets = 1024;
};

/// One named timeline. Buckets are indexed by floor(t / bucket_ns); the
/// ring window always ends at the newest bucket observed.
class TimeSeries {
 public:
  explicit TimeSeries(SeriesKind kind, TimeSeriesOptions opts = {});

  void Observe(Nanoseconds t_ns, double value);

  SeriesKind kind() const { return kind_; }
  const TimeSeriesOptions& options() const { return opts_; }
  std::uint64_t num_samples() const { return num_samples_; }
  /// Samples that fell before the ring window (or arrived after the window
  /// slid past their bucket). Never silently hidden: exported as a field.
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  /// Start of the ring window (absolute bucket index); 0 when empty.
  std::uint64_t first_bucket() const;
  /// One past the newest bucket index; 0 when empty.
  std::uint64_t end_bucket() const;
  /// Value of absolute bucket `b` (0.0 outside the window).
  double BucketValue(std::uint64_t b) const;

 private:
  void AdvanceTo(std::uint64_t bucket);

  SeriesKind kind_;
  TimeSeriesOptions opts_;
  std::vector<double> ring_;
  bool any_ = false;
  std::uint64_t base_bucket_ = 0;  ///< absolute index of ring slot 0
  std::uint64_t max_bucket_ = 0;   ///< newest absolute bucket observed
  std::uint64_t num_samples_ = 0;
  std::uint64_t dropped_samples_ = 0;
};

/// Named collection of time series, find-or-create like MetricsRegistry.
/// Series identity is FormatMetricName(name, labels); iteration and export
/// are sorted by that key, so the export is deterministic.
class TimeSeriesRecorder {
 public:
  /// `default_opts` is used by series() calls that do not pass options, so
  /// one construction site (which knows the run's time span) can size the
  /// buckets for every instrumentation point downstream of it.
  explicit TimeSeriesRecorder(TimeSeriesOptions default_opts = {})
      : default_opts_(default_opts) {}
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  const TimeSeriesOptions& default_options() const { return default_opts_; }

  /// Finds or creates; the returned reference stays valid for the
  /// recorder's lifetime. Re-requesting an existing series ignores the new
  /// kind/options (same contract as MetricsRegistry::histogram). Passing no
  /// options uses the recorder's defaults.
  TimeSeries& series(const std::string& name, const MetricLabels& labels = {},
                     SeriesKind kind = SeriesKind::kSum);
  TimeSeries& series(const std::string& name, const MetricLabels& labels,
                     SeriesKind kind, const TimeSeriesOptions& opts);

  std::size_t size() const { return series_.size(); }

  /// Structured export: one entry per series with bucket_ns, kind, window
  /// and the dense value array (leading window of zeros trimmed).
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    MetricLabels labels;
    std::unique_ptr<TimeSeries> series;
  };
  TimeSeriesOptions default_opts_;
  std::map<std::string, Entry> series_;  // keyed by formatted name
};

}  // namespace microrec::obs
