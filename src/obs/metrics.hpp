// Metrics registry for the simulation stack: named counters, gauges, and
// fixed-log-bucket histograms with labels, snapshots, and two exporters
// (structured JSON and Prometheus text format).
//
// Unlike the store-all PercentileTracker (common/stats.hpp), a Histogram
// holds a fixed number of geometric buckets, so memory is bounded no matter
// how many samples stream through, and two histograms from different runs
// merge exactly (bucket-wise addition). The price is bounded
// relative quantile error: a quantile estimate is off by at most one bucket
// width, i.e. a factor of `growth` (tested in obs_test).
//
// Handles returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime, so instrumentation sites resolve names once at
// install time and pay a pointer dereference plus an add on the hot path.
// Nothing here feeds back into simulator timing: enabling metrics never
// changes simulation results (the identity gate in obs_test asserts this
// end to end).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace microrec::obs {

/// Label set attached to a metric, e.g. {{"bank", "3"}, {"kind", "hbm"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// `name{k="v",...}` -- the canonical identity of a metric instance; also
/// exactly the Prometheus sample-name syntax.
std::string FormatMetricName(const std::string& name,
                             const MetricLabels& labels);

class Counter {
 public:
  void Inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  /// Set-if-greater, for high-water marks.
  void Max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

struct HistogramOptions {
  /// Upper bound of the first bucket; samples below it land in the
  /// underflow bucket (reported exactly via min()).
  double min_value = 1.0;
  /// Geometric bucket growth factor (> 1). Quantile estimates are within a
  /// factor of `growth` of the exact value.
  double growth = 1.25;
  /// Number of geometric buckets between min_value and
  /// min_value * growth^num_buckets; out-of-range samples use the
  /// underflow/overflow buckets.
  std::uint32_t num_buckets = 64;

  bool operator==(const HistogramOptions&) const = default;
};

/// Fixed-log-bucket histogram: O(num_buckets) memory regardless of sample
/// count, O(1) Observe, mergeable.
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  void Observe(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Estimated quantile (q in [0,1]) by linear interpolation inside the
  /// containing bucket, clamped to the observed [min, max]. Returns 0 with
  /// no samples.
  double Quantile(double q) const;

  /// buckets()[0] is the underflow bucket (x < min_value), buckets()[i] for
  /// i in [1, num_buckets] covers [bound(i-1), bound(i)), and the last
  /// entry is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  /// Upper bound of bucket `i` (underflow: min_value; overflow: +inf).
  double UpperBound(std::size_t i) const;

  const HistogramOptions& options() const { return opts_; }

  /// Bucket-wise addition; both histograms must share options.
  void Merge(const Histogram& other);

 private:
  HistogramOptions opts_;
  double inv_log_growth_ = 0.0;
  std::vector<std::uint64_t> buckets_;  // underflow + num_buckets + overflow
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point-in-time copy of every metric, detached from the registry: the unit
/// of export.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    MetricLabels labels;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    MetricLabels labels;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    MetricLabels labels;
    Histogram histogram;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  /// Per-family help strings (keyed by bare metric name, no labels),
  /// emitted as `# HELP` lines; families without an entry get a generic
  /// fallback so every family's exposition is HELP, TYPE, samples.
  std::map<std::string, std::string> help;

  /// Structured JSON export.
  std::string ToJson() const;
  /// Prometheus text exposition format (counters as `_total`-suffixed
  /// counters, histograms as cumulative `_bucket{le=...}` series).
  std::string ToPrometheus() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; the returned reference stays valid for the
  /// registry's lifetime. Re-registering an existing histogram name ignores
  /// the new options.
  Counter& counter(const std::string& name, const MetricLabels& labels = {});
  Gauge& gauge(const std::string& name, const MetricLabels& labels = {});
  Histogram& histogram(const std::string& name, const MetricLabels& labels = {},
                       const HistogramOptions& opts = {});

  /// Attaches a `# HELP` string to the metric family `name` (all label
  /// sets); shows up in ToPrometheus ahead of the family's TYPE line.
  void SetHelp(const std::string& name, const std::string& text) {
    help_[name] = text;
  }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  MetricsSnapshot Snapshot() const;

  std::string ToJson() const { return Snapshot().ToJson(); }
  std::string ToPrometheus() const { return Snapshot().ToPrometheus(); }

 private:
  template <typename T>
  using Table = std::map<std::string, std::unique_ptr<T>>;

  struct Meta {
    std::string name;
    MetricLabels labels;
  };

  Table<Counter> counters_;
  Table<Gauge> gauges_;
  Table<Histogram> histograms_;
  std::map<std::string, Meta> meta_;  // keyed by formatted name
  std::map<std::string, std::string> help_;  // keyed by bare family name
};

}  // namespace microrec::obs
