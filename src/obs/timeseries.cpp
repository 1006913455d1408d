#include "obs/timeseries.hpp"

#include <algorithm>
#include <sstream>

#include "common/status.hpp"
#include "obs/json_writer.hpp"

namespace microrec::obs {

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kSum:
      return "sum";
    case SeriesKind::kMax:
      return "max";
  }
  return "unknown";
}

TimeSeries::TimeSeries(SeriesKind kind, TimeSeriesOptions opts)
    : kind_(kind), opts_(opts) {
  MICROREC_CHECK(opts_.bucket_ns > 0.0);
  MICROREC_CHECK(opts_.num_buckets >= 1);
  ring_.assign(opts_.num_buckets, 0.0);
}

std::uint64_t TimeSeries::first_bucket() const { return any_ ? base_bucket_ : 0; }

std::uint64_t TimeSeries::end_bucket() const { return any_ ? max_bucket_ + 1 : 0; }

double TimeSeries::BucketValue(std::uint64_t b) const {
  if (!any_ || b < base_bucket_ || b > max_bucket_) return 0.0;
  return ring_[b % opts_.num_buckets];
}

void TimeSeries::AdvanceTo(std::uint64_t bucket) {
  if (!any_) {
    any_ = true;
    base_bucket_ = bucket;
    max_bucket_ = bucket;
    ring_[bucket % opts_.num_buckets] = 0.0;
    return;
  }
  if (bucket <= max_bucket_) return;
  // Slide the window forward, zeroing slots the new range reuses. If the
  // jump exceeds the ring, every slot resets.
  const std::uint64_t steps = bucket - max_bucket_;
  if (steps >= opts_.num_buckets) {
    std::fill(ring_.begin(), ring_.end(), 0.0);
  } else {
    for (std::uint64_t b = max_bucket_ + 1; b <= bucket; ++b) {
      ring_[b % opts_.num_buckets] = 0.0;
    }
  }
  max_bucket_ = bucket;
  if (max_bucket_ - base_bucket_ >= opts_.num_buckets) {
    base_bucket_ = max_bucket_ - opts_.num_buckets + 1;
  }
}

void TimeSeries::Observe(Nanoseconds t_ns, double value) {
  MICROREC_CHECK(t_ns >= 0.0);
  const auto bucket = static_cast<std::uint64_t>(t_ns / opts_.bucket_ns);
  AdvanceTo(bucket);
  if (bucket < base_bucket_) {
    ++dropped_samples_;
    return;
  }
  ++num_samples_;
  double& slot = ring_[bucket % opts_.num_buckets];
  if (kind_ == SeriesKind::kSum) {
    slot += value;
  } else {
    slot = std::max(slot, value);
  }
}

TimeSeries& TimeSeriesRecorder::series(const std::string& name,
                                       const MetricLabels& labels,
                                       SeriesKind kind) {
  return series(name, labels, kind, default_opts_);
}

TimeSeries& TimeSeriesRecorder::series(const std::string& name,
                                       const MetricLabels& labels,
                                       SeriesKind kind,
                                       const TimeSeriesOptions& opts) {
  const std::string key = FormatMetricName(name, labels);
  auto it = series_.find(key);
  if (it == series_.end()) {
    Entry entry{name, labels, std::make_unique<TimeSeries>(kind, opts)};
    it = series_.emplace(key, std::move(entry)).first;
  }
  return *it->second.series;
}

void TimeSeriesRecorder::WriteJson(std::ostream& out) const {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("series");
  w.BeginObject();
  for (const auto& [key, entry] : series_) {
    const TimeSeries& s = *entry.series;
    w.Key(key);
    w.BeginObject();
    w.KV("kind", SeriesKindName(s.kind()));
    w.KV("bucket_ns", s.options().bucket_ns);
    w.KV("start_bucket", s.first_bucket());
    w.KV("samples", s.num_samples());
    w.KV("dropped_samples", s.dropped_samples());
    w.Key("values");
    w.BeginArray();
    for (std::uint64_t b = s.first_bucket(); b < s.end_bucket(); ++b) {
      w.Value(s.BucketValue(b));
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  out << "\n";
}

std::string TimeSeriesRecorder::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

}  // namespace microrec::obs
