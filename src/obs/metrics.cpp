#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/status.hpp"
#include "obs/json_writer.hpp"

namespace microrec::obs {

namespace {

/// Prometheus exposition escaping for label values: backslash, double
/// quote, and newline must be escaped or the line becomes unparseable.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Prometheus sample-value rendering. JsonNumber turns NaN/Inf into JSON
/// `null`, which the exposition format cannot carry; Prometheus spells
/// them NaN / +Inf / -Inf.
std::string PrometheusNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  return JsonNumber(value);
}

}  // namespace

std::string FormatMetricName(const std::string& name,
                             const MetricLabels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) + "\"";
  }
  out += '}';
  return out;
}

// ------------------------------------------------------------- Histogram

Histogram::Histogram(HistogramOptions opts) : opts_(opts) {
  MICROREC_CHECK(opts_.min_value > 0.0);
  MICROREC_CHECK(opts_.growth > 1.0);
  MICROREC_CHECK(opts_.num_buckets >= 1);
  inv_log_growth_ = 1.0 / std::log(opts_.growth);
  buckets_.assign(opts_.num_buckets + 2, 0);
}

void Histogram::Observe(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;

  std::size_t index;
  if (x < opts_.min_value) {
    index = 0;
  } else {
    const double raw = std::log(x / opts_.min_value) * inv_log_growth_;
    const auto bucket = static_cast<std::size_t>(raw);
    index = bucket >= opts_.num_buckets ? opts_.num_buckets + 1 : bucket + 1;
  }
  ++buckets_[index];
}

double Histogram::UpperBound(std::size_t i) const {
  MICROREC_CHECK(i < buckets_.size());
  if (i == buckets_.size() - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return opts_.min_value * std::pow(opts_.growth, static_cast<double>(i));
}

double Histogram::Quantile(double q) const {
  MICROREC_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  // Rank of the requested quantile among `count_` samples (closest rank).
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double lo_rank = static_cast<double>(seen);
    seen += buckets_[i];
    if (rank > static_cast<double>(seen)) continue;

    // Interpolate inside the bucket's value range.
    double lo = i == 0 ? min_ : UpperBound(i - 1);
    double hi = i + 1 == buckets_.size() ? max_ : UpperBound(i);
    lo = std::clamp(lo, min_, max_);
    hi = std::clamp(hi, min_, max_);
    const double frac =
        (rank - lo_rank) / static_cast<double>(buckets_[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  MICROREC_CHECK(opts_ == other.opts_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

// -------------------------------------------------------------- Registry

Counter& MetricsRegistry::counter(const std::string& name,
                                  const MetricLabels& labels) {
  const std::string key = FormatMetricName(name, labels);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(key, std::make_unique<Counter>()).first;
    meta_.emplace(key, Meta{name, labels});
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const MetricLabels& labels) {
  const std::string key = FormatMetricName(name, labels);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::make_unique<Gauge>()).first;
    meta_.emplace(key, Meta{name, labels});
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const MetricLabels& labels,
                                      const HistogramOptions& opts) {
  const std::string key = FormatMetricName(name, labels);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_.emplace(key, std::make_unique<Histogram>(opts)).first;
    meta_.emplace(key, Meta{name, labels});
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, c] : counters_) {
    const Meta& m = meta_.at(key);
    snap.counters.push_back({m.name, m.labels, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, g] : gauges_) {
    const Meta& m = meta_.at(key);
    snap.gauges.push_back({m.name, m.labels, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, h] : histograms_) {
    const Meta& m = meta_.at(key);
    snap.histograms.push_back({m.name, m.labels, *h});
  }
  snap.help = help_;
  return snap;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.BeginObject();
    w.Key("counters");
    w.BeginObject();
    for (const auto& c : counters) {
      w.KV(FormatMetricName(c.name, c.labels), c.value);
    }
    w.EndObject();
    w.Key("gauges");
    w.BeginObject();
    for (const auto& g : gauges) {
      w.KV(FormatMetricName(g.name, g.labels), g.value);
    }
    w.EndObject();
    w.Key("histograms");
    w.BeginObject();
    for (const auto& h : histograms) {
      w.Key(FormatMetricName(h.name, h.labels));
      w.BeginObject();
      w.KV("count", h.histogram.count());
      w.KV("sum", h.histogram.sum());
      w.KV("min", h.histogram.min());
      w.KV("max", h.histogram.max());
      w.KV("mean", h.histogram.mean());
      w.KV("p50", h.histogram.Quantile(0.50));
      w.KV("p95", h.histogram.Quantile(0.95));
      w.KV("p99", h.histogram.Quantile(0.99));
      w.Key("buckets");
      w.BeginArray();
      const auto& buckets = h.histogram.buckets();
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0) continue;  // sparse: most buckets stay empty
        w.BeginObject();
        w.KV("le", h.histogram.UpperBound(i));
        w.KV("count", buckets[i]);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  os << "\n";
  return os.str();
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::ostringstream os;
  std::string last_type_for;
  // One HELP + TYPE header pair per metric family, HELP first (the
  // exposition-format order: HELP, TYPE, then samples).
  auto type_line = [&](const std::string& name, const char* type) {
    if (name == last_type_for) return;
    const auto it = help.find(name);
    const std::string text =
        it == help.end() ? "microrec metric " + name : it->second;
    std::string escaped;
    escaped.reserve(text.size());
    for (const char c : text) {
      if (c == '\\') {
        escaped += "\\\\";
      } else if (c == '\n') {
        escaped += "\\n";
      } else {
        escaped += c;
      }
    }
    os << "# HELP " << name << " " << escaped << "\n";
    os << "# TYPE " << name << " " << type << "\n";
    last_type_for = name;
  };

  for (const auto& c : counters) {
    type_line(c.name, "counter");
    os << FormatMetricName(c.name, c.labels) << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    type_line(g.name, "gauge");
    os << FormatMetricName(g.name, g.labels) << " "
       << PrometheusNumber(g.value) << "\n";
  }
  for (const auto& h : histograms) {
    type_line(h.name, "histogram");
    const auto& buckets = h.histogram.buckets();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cumulative += buckets[i];
      if (buckets[i] == 0 && i + 1 != buckets.size()) continue;
      MetricLabels labels = h.labels;
      const double ub = h.histogram.UpperBound(i);
      labels.emplace_back(
          "le", std::isinf(ub) ? std::string("+Inf") : JsonNumber(ub));
      os << FormatMetricName(h.name + "_bucket", labels) << " " << cumulative
         << "\n";
    }
    os << FormatMetricName(h.name + "_sum", h.labels) << " "
       << PrometheusNumber(h.histogram.sum()) << "\n";
    os << FormatMetricName(h.name + "_count", h.labels) << " "
       << h.histogram.count() << "\n";
  }
  return os.str();
}

}  // namespace microrec::obs
