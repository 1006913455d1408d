// Tests for the telemetry subsystem: metrics registry (counters, gauges,
// log-bucket histograms, snapshot/diff, exporters), the JSON emitter, the
// span tracer (nesting, Chrome schema, deterministic sampling), and the
// end-to-end identity gate -- attaching telemetry must never change
// simulation results, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/stats.hpp"
#include "core/microrec.hpp"
#include "core/system_sim.hpp"
#include "memsim/hybrid_memory.hpp"
#include "obs/attribution.hpp"
#include "obs/event_log.hpp"
#include "obs/explain.hpp"
#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/perfgate.hpp"
#include "obs/quantiles.hpp"
#include "obs/slo.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"

namespace microrec {
namespace {

using obs::Histogram;
using obs::HistogramOptions;
using obs::MetricsRegistry;
using obs::SpanTracer;
using obs::TracerOptions;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterFindOrCreateReturnsStableRef) {
  MetricsRegistry registry;
  obs::Counter& a = registry.counter("requests_total");
  a.Inc();
  obs::Counter& b = registry.counter("requests_total");
  EXPECT_EQ(&a, &b);
  b.Inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, LabelsDistinguishInstances) {
  MetricsRegistry registry;
  registry.counter("accesses_total", {{"bank", "0"}}).Inc(2);
  registry.counter("accesses_total", {{"bank", "1"}}).Inc(3);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.counter("accesses_total", {{"bank", "0"}}).value(), 2u);
  EXPECT_EQ(registry.counter("accesses_total", {{"bank", "1"}}).value(), 3u);
}

TEST(MetricsRegistryTest, FormatMetricName) {
  EXPECT_EQ(obs::FormatMetricName("up", {}), "up");
  EXPECT_EQ(obs::FormatMetricName("x", {{"bank", "3"}, {"kind", "hbm"}}),
            "x{bank=\"3\",kind=\"hbm\"}");
}

TEST(MetricsRegistryTest, GaugeSetAddMax) {
  MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("depth");
  g.Set(2.0);
  g.Add(3.0);
  EXPECT_EQ(g.value(), 5.0);
  g.Max(4.0);  // below current value: no-op
  EXPECT_EQ(g.value(), 5.0);
  g.Max(9.0);
  EXPECT_EQ(g.value(), 9.0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleSampleAnswersEveryQuantile) {
  Histogram h;
  h.Observe(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42.0);
  EXPECT_EQ(h.max(), 42.0);
  // Clamped to observed [min, max], so every quantile is exact here.
  EXPECT_EQ(h.Quantile(0.0), 42.0);
  EXPECT_EQ(h.Quantile(0.5), 42.0);
  EXPECT_EQ(h.Quantile(1.0), 42.0);
}

TEST(HistogramTest, CountSumMinMaxMeanAreExact) {
  Histogram h(HistogramOptions{1.0, 1.25, 64});
  double sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    h.Observe(static_cast<double>(i));
    sum += i;
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.mean(), sum / 100.0);
}

TEST(HistogramTest, QuantileWithinOneBucketOfExact) {
  const HistogramOptions opts{1.0, 1.25, 64};
  Histogram h(opts);
  std::vector<double> samples;
  // Deterministic spread over ~4 decades (well inside the bucket range).
  for (int i = 0; i < 4000; ++i) {
    const double x = std::exp(i / 4000.0 * std::log(1.0e4));
    samples.push_back(x);
    h.Observe(x);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::size_t rank =
        q == 0.0 ? 0
                 : static_cast<std::size_t>(std::ceil(
                       q * static_cast<double>(samples.size()))) - 1;
    const double exact = samples[rank];
    const double est = h.Quantile(q);
    // Documented bound: off by at most one bucket, a factor of `growth`.
    EXPECT_LE(est, exact * opts.growth * 1.0001) << "q=" << q;
    EXPECT_GE(est, exact / opts.growth / 1.0001) << "q=" << q;
  }
  EXPECT_EQ(h.Quantile(1.0), samples.back());
}

TEST(HistogramTest, UnderflowAndOverflowBuckets) {
  Histogram h(HistogramOptions{10.0, 2.0, 4});  // covers [10, 160)
  h.Observe(1.0);      // underflow
  h.Observe(1.0e9);    // overflow
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1.0e9);
  EXPECT_TRUE(std::isinf(h.UpperBound(h.buckets().size() - 1)));
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a, b;
  for (int i = 1; i <= 50; ++i) a.Observe(i);
  for (int i = 51; i <= 100; ++i) b.Observe(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 100.0);
  EXPECT_EQ(a.sum(), 100.0 * 101.0 / 2.0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExporterTest, JsonExportContainsEverySection) {
  MetricsRegistry registry;
  registry.counter("hits_total", {{"kind", "hbm"}}).Inc(3);
  registry.gauge("depth").Set(1.5);
  registry.histogram("latency_ns").Observe(12.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Labels are part of the metric key: hits_total{kind="hbm"}.
  EXPECT_NE(json.find("hits_total{kind=\\\"hbm\\\"}"), std::string::npos);
  EXPECT_NE(json.find("latency_ns"), std::string::npos);
}

TEST(ExporterTest, PrometheusFormat) {
  MetricsRegistry registry;
  registry.counter("hits_total").Inc(3);
  registry.gauge("depth").Set(1.5);
  registry.histogram("latency_ns").Observe(12.0);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE hits_total counter"), std::string::npos);
  EXPECT_NE(prom.find("hits_total 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE latency_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("latency_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("latency_ns_sum 12"), std::string::npos);
  EXPECT_NE(prom.find("latency_ns_count 1"), std::string::npos);
}

TEST(ExporterTest, EmptyRegistryExportsAreEmptyButWellFormed) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.ToPrometheus().empty());
  const std::string json = registry.ToJson();
  // JSON export still emits the (empty) sections so consumers need no
  // special case.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ExporterTest, PrometheusEscapesLabelValues) {
  // Backslash, double quote, and newline must be escaped inside label
  // values (Prometheus exposition format rules).
  EXPECT_EQ(obs::FormatMetricName("x", {{"path", "a\\b\"c\nd"}}),
            "x{path=\"a\\\\b\\\"c\\nd\"}");
  MetricsRegistry registry;
  registry.counter("hits_total", {{"path", "a\"b\nc\\d"}}).Inc();
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("hits_total{path=\"a\\\"b\\nc\\\\d\"} 1"),
            std::string::npos);
  // The raw (unescaped) newline must not appear inside the metric line.
  EXPECT_EQ(prom.find("a\"b\nc"), std::string::npos);
}

TEST(ExporterTest, PrometheusRendersNonFiniteGauges) {
  MetricsRegistry registry;
  registry.gauge("g_nan").Set(std::nan(""));
  registry.gauge("g_pinf").Set(std::numeric_limits<double>::infinity());
  registry.gauge("g_ninf").Set(-std::numeric_limits<double>::infinity());
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("g_nan NaN"), std::string::npos);
  EXPECT_NE(prom.find("g_pinf +Inf"), std::string::npos);
  EXPECT_NE(prom.find("g_ninf -Inf"), std::string::npos);
  // The JSON exporter keeps its documents parseable instead: null.
  const std::string json = registry.ToJson();
  EXPECT_EQ(json.find("NaN"), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(obs::EscapeJson("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(JsonWriterTest, CompactObjectIsWellFormed) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os, /*indent=*/0);
    w.BeginObject();
    w.KV("name", "x\"y");
    w.KV("n", std::uint64_t{7});
    w.KV("ok", true);
    w.Key("list");
    w.BeginArray();
    w.Value(1);
    w.Value(2);
    w.EndArray();
    w.EndObject();
  }
  EXPECT_EQ(os.str(), "{\"name\":\"x\\\"y\",\"n\":7,\"ok\":true,"
                      "\"list\":[1,2]}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os, 0);
    w.BeginArray();
    w.Value(std::nan(""));
    w.EndArray();
  }
  EXPECT_EQ(os.str(), "[null]");
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(SpanTracerTest, ChromeJsonSchema) {
  SpanTracer tracer(TracerOptions{1, "unit-test"});
  tracer.SetTrackName(1, "memsim bank 0");
  tracer.CompleteSpan(1, "access", 100.0, 250.0);
  tracer.AsyncSpan("query", 17, 50.0, 400.0);
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("unit-test"), std::string::npos);
  EXPECT_NE(json.find("memsim bank 0"), std::string::npos);
  // Complete spans carry both timestamp and duration.
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(SpanTracerTest, SamplingIsDeterministicInQueryIndex) {
  SpanTracer every(TracerOptions{1});
  SpanTracer third(TracerOptions{3});
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(every.SampleQuery(i));
    EXPECT_EQ(third.SampleQuery(i), i % 3 == 0);
    // Stateless: asking twice gives the same answer.
    EXPECT_EQ(third.SampleQuery(i), third.SampleQuery(i));
  }
}

// ---------------------------------------------------------------------------
// Identity gate: telemetry must never change simulation results
// ---------------------------------------------------------------------------

RecModelSpec TinyModel() {
  RecModelSpec model;
  model.name = "tiny-obs-test";
  model.seed = 99;
  for (std::uint32_t i = 0; i < 8; ++i) {
    TableSpec spec;
    spec.id = i;
    spec.name = "t" + std::to_string(i);
    spec.rows = 64 + 16 * i;
    spec.dim = (i % 2 == 0) ? 4 : 8;
    model.tables.push_back(spec);
  }
  model.mlp.input_dim = model.FeatureLength();
  model.mlp.hidden = {48, 24, 12};
  return model;
}

TEST(TelemetryIdentityTest, SystemSimulatorResultsAreBitForBitIdentical) {
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(TinyModel(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  SystemSimulator bare(*engine);
  const SystemSimReport without = bare.Run(400);

  MetricsRegistry registry;
  SpanTracer tracer(TracerOptions{4, "obs-test"});
  SystemSimulator instrumented(*engine);
  instrumented.set_telemetry(obs::Telemetry{&registry, &tracer});
  const SystemSimReport with = instrumented.Run(400);

  // Every numeric result field, compared exactly (no tolerance).
  EXPECT_EQ(with.items, without.items);
  EXPECT_EQ(with.makespan_ns, without.makespan_ns);
  EXPECT_EQ(with.throughput_items_per_s, without.throughput_items_per_s);
  EXPECT_EQ(with.item_latency_p50, without.item_latency_p50);
  EXPECT_EQ(with.item_latency_p99, without.item_latency_p99);
  EXPECT_EQ(with.item_latency_max, without.item_latency_max);
  EXPECT_EQ(with.lookup_latency_mean, without.lookup_latency_mean);
  EXPECT_EQ(with.lookup_latency_max, without.lookup_latency_max);
  EXPECT_EQ(with.peak_bank_utilization, without.peak_bank_utilization);

  // The observability side effects only exist on the instrumented run.
  EXPECT_TRUE(without.attribution.empty());
  EXPECT_FALSE(with.attribution.empty());
  EXPECT_GT(registry.size(), 0u);
  EXPECT_GT(tracer.num_events(), 0u);
}

TEST(TelemetryIdentityTest, AttributionSumsToP99ItemLatency) {
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(TinyModel(), options);
  ASSERT_TRUE(engine.ok());

  MetricsRegistry registry;
  SystemSimulator sim(*engine);
  sim.set_telemetry(obs::Telemetry{&registry, nullptr});
  const SystemSimReport report =
      sim.Run(500, engine->timing().initiation_interval_ns);

  ASSERT_FALSE(report.attribution.empty());
  double p99_share_sum = 0.0;
  double mean_sum = 0.0;
  for (const auto& stage : report.attribution) {
    EXPECT_GE(stage.p99_item_ns, 0.0) << stage.name;
    EXPECT_GE(stage.occupancy, 0.0);
    EXPECT_LE(stage.occupancy, 1.0 + 1e-9);
    p99_share_sum += stage.p99_item_ns;
    mean_sum += stage.mean_ns;
  }
  EXPECT_GT(report.p99_item_latency_ns, 0.0);
  EXPECT_NEAR(p99_share_sum, report.p99_item_latency_ns,
              1e-6 * report.p99_item_latency_ns);
  EXPECT_GT(mean_sum, 0.0);
}

TEST(TelemetryIdentityTest, MemsimBatchUnchangedByTelemetry) {
  const MemoryPlatformSpec spec = MemoryPlatformSpec::AlveoU280();
  std::vector<BankAccess> accesses;
  for (std::uint32_t i = 0; i < 96; ++i) {
    accesses.push_back(BankAccess{i % 7, 64, i});
  }

  HybridMemorySystem bare(spec);
  const LookupBatchResult without = bare.IssueBatch(accesses, 100.0);

  MetricsRegistry registry;
  MemsimTelemetry telemetry(&registry, spec);
  HybridMemorySystem instrumented(spec);
  instrumented.set_telemetry(&telemetry);
  const LookupBatchResult with = instrumented.IssueBatch(accesses, 100.0);

  EXPECT_EQ(with.start_ns, without.start_ns);
  EXPECT_EQ(with.completion_ns, without.completion_ns);
  ASSERT_EQ(with.completions.size(), without.completions.size());
  for (std::size_t i = 0; i < with.completions.size(); ++i) {
    EXPECT_EQ(with.completions[i].tag, without.completions[i].tag);
    EXPECT_EQ(with.completions[i].start_ns, without.completions[i].start_ns);
    EXPECT_EQ(with.completions[i].completion_ns,
              without.completions[i].completion_ns);
    EXPECT_EQ(with.completions[i].queue_delay_ns,
              without.completions[i].queue_delay_ns);
  }
  // And the registry actually saw the traffic.
  EXPECT_GT(registry.size(), 0u);
}

// ---------------------------------------------------------------------------
// Shared quantile helpers
// ---------------------------------------------------------------------------

TEST(QuantilesTest, SortedQuantileMatchesPercentileTrackerExactly) {
  std::vector<double> samples;
  for (int i = 0; i < 257; ++i) {
    samples.push_back(std::fmod(static_cast<double>(i) * 37.5, 101.0));
  }
  PercentileTracker tracker;
  for (double s : samples) tracker.Add(s);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(obs::SortedQuantile(sorted, q), tracker.Percentile(q)) << q;
  }
  EXPECT_EQ(obs::Quantile(samples, 0.99), tracker.Percentile(0.99));
}

TEST(QuantilesTest, ArgQuantileIndexPicksTheRankedElement) {
  const std::vector<double> values = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0};
  EXPECT_EQ(obs::QuantileRankIndex(values.size(), 0.0), 0u);
  EXPECT_EQ(obs::QuantileRankIndex(values.size(), 1.0), values.size() - 1);
  EXPECT_EQ(values[obs::ArgQuantileIndex(values, 0.0)], 1.0);
  EXPECT_EQ(values[obs::ArgQuantileIndex(values, 1.0)], 9.0);
  // 0.5 * (6 - 1) = 2.5 -> rank 2 -> third smallest.
  EXPECT_EQ(values[obs::ArgQuantileIndex(values, 0.5)], 3.0);
}

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, SumAndMaxBucketKinds) {
  const obs::TimeSeriesOptions opts{10.0, 8};
  obs::TimeSeries sum(obs::SeriesKind::kSum, opts);
  sum.Observe(5.0, 1.0);
  sum.Observe(9.0, 2.0);   // same bucket 0
  sum.Observe(25.0, 4.0);  // bucket 2
  EXPECT_EQ(sum.BucketValue(0), 3.0);
  EXPECT_EQ(sum.BucketValue(1), 0.0);
  EXPECT_EQ(sum.BucketValue(2), 4.0);
  EXPECT_EQ(sum.num_samples(), 3u);

  obs::TimeSeries max(obs::SeriesKind::kMax, opts);
  max.Observe(5.0, 1.0);
  max.Observe(9.0, 7.0);
  max.Observe(7.0, 3.0);
  EXPECT_EQ(max.BucketValue(0), 7.0);
}

TEST(TimeSeriesTest, RingDropsSamplesBehindTheWindow) {
  obs::TimeSeries series(obs::SeriesKind::kSum,
                         obs::TimeSeriesOptions{10.0, 4});
  series.Observe(100.0, 1.0);  // bucket 10; window starts there
  EXPECT_EQ(series.first_bucket(), 10u);
  EXPECT_EQ(series.end_bucket(), 11u);
  series.Observe(0.0, 1.0);  // bucket 0: behind the window, dropped
  EXPECT_EQ(series.dropped_samples(), 1u);
  EXPECT_EQ(series.num_samples(), 1u);
  EXPECT_EQ(series.BucketValue(0), 0.0);
  // Sliding far forward evicts the old window: bucket 10 leaves as the
  // ring advances to [97, 100].
  series.Observe(1000.0, 2.0);
  EXPECT_EQ(series.BucketValue(10), 0.0);
  EXPECT_EQ(series.BucketValue(100), 2.0);
  EXPECT_EQ(series.first_bucket(), 97u);
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(JsonReaderTest, ParsesScalarsContainersAndEscapes) {
  const auto doc = obs::JsonValue::Parse(
      "{\"a\": 1.5, \"b\": [true, null, \"x\\ny\"], \"c\": {\"d\": -2e3}}");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  const obs::JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->AsNumber(), 1.5);
  const obs::JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->AsArray().size(), 3u);
  EXPECT_TRUE(b->AsArray()[0].AsBool());
  EXPECT_TRUE(b->AsArray()[1].is_null());
  EXPECT_EQ(b->AsArray()[2].AsString(), "x\ny");
  EXPECT_EQ(doc->Find("c")->Find("d")->AsNumber(), -2000.0);
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonReaderTest, RoundTripsJsonWriterOutput) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os, 2);
    w.BeginObject();
    w.KV("name", "a\"b\\c");
    w.KV("n", std::uint64_t{7});
    w.Key("xs");
    w.BeginArray();
    w.Value(1.25);
    w.Value(false);
    w.EndArray();
    w.EndObject();
  }
  const auto doc = obs::JsonValue::Parse(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("name")->AsString(), "a\"b\\c");
  EXPECT_EQ(doc->Find("n")->AsNumber(), 7.0);
  EXPECT_EQ(doc->Find("xs")->AsArray()[0].AsNumber(), 1.25);
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::JsonValue::Parse("").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("[1, 2").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("nul").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"unterminated").ok());
  // Depth bomb: past the recursion cap, a clean error instead of a crash.
  EXPECT_FALSE(obs::JsonValue::Parse(std::string(100, '[')).ok());
  // Errors carry the offending offset.
  const auto err = obs::JsonValue::Parse("[1, x]");
  EXPECT_NE(err.status().ToString().find("offset"), std::string::npos);
}

TEST(JsonReaderTest, DuplicateKeysKeepTheLastValue) {
  const auto doc = obs::JsonValue::Parse("{\"k\": 1, \"k\": 2}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("k")->AsNumber(), 2.0);
}

// ---------------------------------------------------------------------------
// SLO burn-rate monitor
// ---------------------------------------------------------------------------

std::vector<obs::QueryOutcome> SyntheticOutcomes(std::size_t n,
                                                 std::size_t bad_from,
                                                 double good_latency,
                                                 double bad_latency) {
  std::vector<obs::QueryOutcome> outcomes;
  for (std::size_t i = 0; i < n; ++i) {
    outcomes.push_back(obs::QueryOutcome{
        static_cast<double>(i) * 1000.0,
        i >= bad_from ? bad_latency : good_latency, true});
  }
  return outcomes;
}

TEST(SloTest, HealthyRunStaysQuietWithFullBudget) {
  const auto outcomes = SyntheticOutcomes(2000, 2000, 500.0, 0.0);
  const auto spec = obs::SloSpec::Default(1000.0, 0.999, 2.0e6);
  const obs::SloReport report = obs::EvaluateSlo(spec, outcomes);
  EXPECT_EQ(report.bad, 0u);
  EXPECT_FALSE(report.alerted);
  EXPECT_EQ(report.time_to_alert_ns, 0.0);
  EXPECT_EQ(report.error_budget_remaining, 1.0);
  for (const auto& rule : report.rules) EXPECT_FALSE(rule.fired) << rule.severity;
}

TEST(SloTest, LatencyRegressionPagesShortlyAfterOnset) {
  // Good for the first half, then every query blows the threshold: the
  // page rule must fire shortly after the onset at t = 1 ms, not at the
  // end of the run.
  const auto outcomes = SyntheticOutcomes(2000, 1000, 500.0, 5000.0);
  const auto spec = obs::SloSpec::Default(1000.0, 0.999, 2.0e6);
  const obs::SloReport report = obs::EvaluateSlo(spec, outcomes);
  EXPECT_EQ(report.bad, 1000u);
  EXPECT_TRUE(report.alerted);
  EXPECT_GE(report.time_to_alert_ns, 1.0e6);
  EXPECT_LE(report.time_to_alert_ns, 1.2e6);
  EXPECT_LT(report.error_budget_remaining, 0.0);
}

TEST(SloTest, ShedQueriesAreBadRegardlessOfLatency) {
  auto outcomes = SyntheticOutcomes(1000, 1000, 500.0, 0.0);
  for (std::size_t i = 600; i < 1000; ++i) {
    outcomes[i].served = false;
    outcomes[i].latency_ns = 0.0;  // fast, but shed: still bad
  }
  const auto spec = obs::SloSpec::Default(1000.0, 0.999, 1.0e6);
  const obs::SloReport report = obs::EvaluateSlo(spec, outcomes);
  EXPECT_EQ(report.bad, 400u);
  EXPECT_TRUE(report.alerted);
}

// ---------------------------------------------------------------------------
// Perf-regression gate
// ---------------------------------------------------------------------------

constexpr const char* kBaselineBench = R"({
  "bench": "demo",
  "qps": 150000,
  "records": [
    {"name": "p0", "p99_ns": 100.0, "throughput": 2.0e6, "ok": true},
    {"name": "p1", "p99_ns": 240.0, "throughput": 1.5e6, "ok": true}
  ]
})";

obs::PerfGateFileReport GateAgainstBaseline(const std::string& current,
                                            const obs::PerfGateOptions& opts) {
  const auto report =
      obs::ComparePerfReportText("demo", kBaselineBench, current, opts);
  EXPECT_TRUE(report.ok()) << report.status();
  return *report;
}

TEST(PerfGateTest, IdenticalReportPasses) {
  const auto report = GateAgainstBaseline(kBaselineBench, {});
  EXPECT_TRUE(report.pass());
  EXPECT_GT(report.metrics_compared, 0u);
}

TEST(PerfGateTest, TwentyPercentRegressionFailsAtDefaultTolerance) {
  std::string current = kBaselineBench;
  const std::size_t pos = current.find("100.0");
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, 5, "120.0");
  const auto report = GateAgainstBaseline(current, {});
  EXPECT_FALSE(report.pass());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("p99_ns"), std::string::npos);
  EXPECT_NE(report.failures[0].find("regressed"), std::string::npos);

  // Symmetric: a 20% *improvement* fails too (the model changed).
  std::string improved = kBaselineBench;
  improved.replace(improved.find("100.0"), 5, "80.0");
  const auto up = GateAgainstBaseline(improved, {});
  EXPECT_FALSE(up.pass());
  EXPECT_NE(up.failures[0].find("improved"), std::string::npos);
}

TEST(PerfGateTest, PerMetricToleranceOverridesDefault) {
  std::string current = kBaselineBench;
  current.replace(current.find("100.0"), 5, "120.0");
  obs::PerfGateOptions opts;
  opts.metric_tolerance["p99_ns"] = 0.25;
  EXPECT_TRUE(GateAgainstBaseline(current, opts).pass());
  // The override is per-metric, not global: a throughput drift still fails.
  current.replace(current.find("2.0e6"), 5, "2.4e6");
  EXPECT_FALSE(GateAgainstBaseline(current, opts).pass());
}

TEST(PerfGateTest, StructuralMismatchesAreHardFailures) {
  // Missing record.
  const auto fewer = GateAgainstBaseline(R"({
    "bench": "demo", "qps": 150000,
    "records": [{"name": "p0", "p99_ns": 100.0, "throughput": 2.0e6,
                 "ok": true}]
  })", {});
  EXPECT_FALSE(fewer.pass());

  // String field changed.
  std::string renamed = kBaselineBench;
  renamed.replace(renamed.find("\"p1\""), 4, "\"pX\"");
  EXPECT_FALSE(GateAgainstBaseline(renamed, {}).pass());

  // Metric vanished from a record.
  std::string missing = kBaselineBench;
  missing.replace(missing.find(", \"ok\": true}"), 12, "");
  EXPECT_FALSE(GateAgainstBaseline(missing, {}).pass());
}

// A wall-clock bench blesses its baseline with a volatile_metrics meta:
// those numeric fields are structure-checked but never value-compared, so
// hardware-speed drift cannot flake the gate while booleans and
// deterministic fields stay load-bearing.
constexpr const char* kVolatileBaseline = R"({
  "bench": "wall",
  "volatile_metrics": "qps, wall_ms",
  "avx2": true,
  "records": [
    {"name": "r0", "qps": 1.0e6, "wall_ms": 12.0, "identical": true}
  ]
})";

TEST(PerfGateTest, BaselineDeclaredVolatileMetricsIgnoreDrift) {
  std::string current = kVolatileBaseline;
  current.replace(current.find("1.0e6"), 5, "9.0e6");  // 9x faster machine
  current.replace(current.find("12.0"), 4, "99.0");
  const auto report = obs::ComparePerfReportText("wall", kVolatileBaseline,
                                                 current, {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass()) << obs::RenderPerfGateReport({{*report}, 0});
}

TEST(PerfGateTest, VolatileMetricsDoNotExemptBooleans) {
  // A bool flipping is a correctness signal (e.g. avx2 silently off), not
  // noise -- volatility never applies to it.
  std::string current = kVolatileBaseline;
  current.replace(current.find("\"avx2\": true"), 12, "\"avx2\": false");
  const auto report = obs::ComparePerfReportText("wall", kVolatileBaseline,
                                                 current, {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->pass());
}

TEST(PerfGateTest, VolatileMetricsMustStillBePresent) {
  std::string current = kVolatileBaseline;
  const std::string dropped = ", \"wall_ms\": 12.0";
  current.replace(current.find(dropped), dropped.size(), "");
  const auto report = obs::ComparePerfReportText("wall", kVolatileBaseline,
                                                 current, {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->pass());  // structural: the field vanished
}

TEST(PerfGateTest, CurrentReportCannotExemptItself) {
  // Only the *blessed baseline* may declare volatility; a current report
  // claiming its own metrics are volatile is ignored.
  constexpr const char* baseline = R"({
    "bench": "wall", "qps": 1.0e6, "records": []
  })";
  constexpr const char* current = R"({
    "bench": "wall", "volatile_metrics": "qps", "qps": 9.0e6, "records": []
  })";
  const auto report = obs::ComparePerfReportText("wall", baseline, current, {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->pass());
  // The drift itself is among the failures (not just the new meta field).
  bool qps_failed = false;
  for (const std::string& line : report->failures) {
    qps_failed |= line.find("qps") != std::string::npos &&
                  line.find("regressed") != std::string::npos;
  }
  EXPECT_TRUE(qps_failed);
}

TEST(PerfGateTest, WildcardEntryMatchesPrefixedMetrics) {
  obs::PerfGateOptions opts;
  opts.volatile_metrics = {"prof_*", "wall_ms"};
  EXPECT_TRUE(opts.IsVolatile("prof_ipc"));
  EXPECT_TRUE(opts.IsVolatile("prof_"));  // the empty-suffix edge
  EXPECT_TRUE(opts.IsVolatile("wall_ms"));
  EXPECT_FALSE(opts.IsVolatile("profits"));  // prefix, not substring
  EXPECT_FALSE(opts.IsVolatile("qps"));
  EXPECT_FALSE(opts.IsVolatile("pro"));  // shorter than the prefix
}

TEST(PerfGateTest, BaselineDeclaredWildcardIgnoresDriftAcrossPrefix) {
  constexpr const char* baseline = R"({
    "bench": "wall", "volatile_metrics": "prof_*",
    "records": [{"name": "gather", "prof_gbs": 4.0, "prof_ipc": 0.5,
                 "memory_bound": true}]
  })";
  std::string current = baseline;
  current.replace(current.find("4.0"), 3, "9.9");
  current.replace(current.find("0.5"), 3, "2.5");
  const auto drifted = obs::ComparePerfReportText("wall", baseline, current,
                                                  {});
  ASSERT_TRUE(drifted.ok()) << drifted.status();
  EXPECT_TRUE(drifted->pass())
      << obs::RenderPerfGateReport({{*drifted}, 0});

  // The wildcard never exempts the classification bool riding alongside.
  std::string flipped = baseline;
  flipped.replace(flipped.find("\"memory_bound\": true"), 20,
                  "\"memory_bound\": false");
  const auto report = obs::ComparePerfReportText("wall", baseline, flipped,
                                                 {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->pass());
}

TEST(PerfGateTest, RenderEndsWithVerdictLine) {
  obs::PerfGateReport report;
  report.files.push_back(GateAgainstBaseline(kBaselineBench, {}));
  report.metrics_compared = report.files[0].metrics_compared;
  const std::string text = obs::RenderPerfGateReport(report);
  EXPECT_NE(text.find("perfgate: PASS"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

TEST(AttributionTest, DecomposesHandBuiltTraceExactly) {
  SpanTracer tracer;
  tracer.SetTrackName(1, "stage_a");
  tracer.SetTrackKind(1, obs::TrackKind::kStage);
  tracer.SetTrackName(2, "stage_b");
  tracer.SetTrackKind(2, obs::TrackKind::kStage);
  tracer.SetTrackName(3, "bank 0");
  tracer.SetTrackKind(3, obs::TrackKind::kBank);

  // Query 0: starts at 0, ends at 100. stage_a occupies [10, 40] with a
  // bank access [15, 35] under it; stage_b occupies [50, 90].
  tracer.AsyncSpan("query 0", 0, 0.0, 100.0);
  tracer.CompleteSpan(1, "stage_a", 10.0, 40.0, 0);
  tracer.CompleteSpan(3, "lookup", 15.0, 35.0, 0);
  tracer.CompleteSpan(2, "stage_b", 50.0, 90.0, 0);

  const obs::AttributionReport report =
      obs::ComputeCriticalPathAttribution(tracer);
  EXPECT_EQ(report.queries_analyzed, 1u);
  const obs::QueryAttribution& q = report.p99;
  EXPECT_EQ(q.total_ns, 100.0);
  EXPECT_EQ(q.ComponentSum(), 100.0);

  auto component = [&](const std::string& stage,
                       const std::string& category) -> double {
    for (const auto& c : q.components) {
      if (c.stage == stage && c.category == category) return c.ns;
    }
    ADD_FAILURE() << "missing " << stage << "/" << category;
    return -1.0;
  };
  EXPECT_EQ(component("stage_a", "queue"), 10.0);       // 0 -> enter 10
  EXPECT_EQ(component("stage_a", "bank-queue"), 5.0);   // 10 -> bank 15
  EXPECT_EQ(component("stage_a", "bank-service"), 20.0);
  EXPECT_EQ(component("stage_a", "stall"), 5.0);        // bank 35 -> exit 40
  EXPECT_EQ(component("stage_b", "queue"), 10.0);       // 40 -> 50
  EXPECT_EQ(component("stage_b", "service"), 40.0);
  EXPECT_EQ(component("", "unattributed"), 10.0);       // 90 -> end 100
}

TEST(AttributionTest, SumInvariantHoldsForEverySimulatedQuery) {
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(TinyModel(), options);
  ASSERT_TRUE(engine.ok());

  SpanTracer tracer(TracerOptions{1, "attr-test"});
  SystemSimulator sim(*engine);
  sim.set_telemetry(obs::Telemetry{nullptr, &tracer});
  const SystemSimReport report = sim.Run(300);

  const obs::AttributionReport attribution =
      obs::ComputeCriticalPathAttribution(tracer);
  EXPECT_EQ(attribution.queries_analyzed, 300u);
  // Exact-sum invariant, bounded by one memory-channel beat (the finest
  // timing quantum in the simulator).
  const double beat_ns =
      MemoryPlatformSpec::AlveoU280().hbm_timing.beat_ns;
  for (const auto& c : attribution.p99.components) EXPECT_GE(c.ns, 0.0);
  EXPECT_NEAR(attribution.p99.ComponentSum(), attribution.p99.total_ns,
              beat_ns);
  // The drilldown names the same query the system report ranks as p99.
  EXPECT_NEAR(attribution.p99.total_ns, report.p99_item_latency_ns, beat_ns);
  double mean_sum = 0.0;
  for (const auto& c : attribution.mean_components) mean_sum += c.ns;
  EXPECT_NEAR(mean_sum, attribution.mean_total_ns,
              1e-6 * attribution.mean_total_ns + 1e-9);
}

TEST(TelemetryIdentityTest, TimeSeriesRecorderPreservesBitIdentity) {
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(TinyModel(), options);
  ASSERT_TRUE(engine.ok());

  SystemSimulator bare(*engine);
  const SystemSimReport without = bare.Run(400);

  obs::TimeSeriesRecorder timeline(obs::TimeSeriesOptions{500.0, 4096});
  SystemSimulator instrumented(*engine);
  instrumented.set_telemetry(obs::Telemetry{nullptr, nullptr, &timeline});
  const SystemSimReport with = instrumented.Run(400);

  EXPECT_EQ(with.makespan_ns, without.makespan_ns);
  EXPECT_EQ(with.item_latency_p50, without.item_latency_p50);
  EXPECT_EQ(with.item_latency_p99, without.item_latency_p99);
  EXPECT_EQ(with.lookup_latency_max, without.lookup_latency_max);
  EXPECT_EQ(with.peak_bank_utilization, without.peak_bank_utilization);
  // The recorder saw per-bank busy/backlog timelines.
  EXPECT_GT(timeline.size(), 0u);
}

// ---------------------------------------------------------------------------
// Scheduler flight recorder: event log, explain, postmortem
// ---------------------------------------------------------------------------

obs::SchedEvent MakeEvent(obs::SchedEventKind kind, Nanoseconds t,
                          std::uint64_t query = obs::kNoQuery) {
  obs::SchedEvent e;
  e.kind = kind;
  e.time_ns = t;
  e.query = query;
  return e;
}

TEST(EventLogTest, AppendAssignsSequenceAndRingEvicts) {
  obs::EventLog log(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    log.Append(MakeEvent(obs::SchedEventKind::kAdmit, 10.0 * i, i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.total_appended(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  // The two oldest-appended events were evicted; survivors keep the
  // sequence numbers Append assigned.
  EXPECT_EQ(log.events().front().query, 2u);
  EXPECT_EQ(log.events().front().seq, 2u);
  EXPECT_EQ(log.events().back().query, 5u);
  EXPECT_EQ(log.events().back().seq, 5u);
}

TEST(EventLogTest, SortedOrdersByTimeThenSequence) {
  obs::EventLog log;
  // Appended out of time order (as probe-clock and pre-registered fault
  // events are in real runs); equal times fall back to append order.
  log.Append(MakeEvent(obs::SchedEventKind::kFaultBegin, 30.0));
  log.Append(MakeEvent(obs::SchedEventKind::kAdmit, 10.0, 1));
  log.Append(MakeEvent(obs::SchedEventKind::kServe, 10.0, 1));
  const std::vector<obs::SchedEvent> sorted = log.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].kind, obs::SchedEventKind::kAdmit);
  EXPECT_EQ(sorted[1].kind, obs::SchedEventKind::kServe);
  EXPECT_EQ(sorted[2].kind, obs::SchedEventKind::kFaultBegin);
  EXPECT_LT(sorted[0].seq, sorted[1].seq);
}

TEST(EventLogTest, KindNamesRoundTripThroughParse) {
  for (int k = 0; k <= static_cast<int>(obs::SchedEventKind::kDeadlineMiss);
       ++k) {
    const auto kind = static_cast<obs::SchedEventKind>(k);
    const char* name = obs::SchedEventKindName(kind);
    ASSERT_STRNE(name, "?");
    const auto parsed = obs::ParseSchedEventKind(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs::ParseSchedEventKind("not-a-kind").ok());
}

obs::EventLog RichLog() {
  obs::EventLog log;
  log.set_backend_names({"fpga", "cpu"});
  obs::SchedEvent route = MakeEvent(obs::SchedEventKind::kRoute, 5.0, 7);
  route.backend = 1;
  route.preferred = 0;
  route.probes = {{/*score_ns=*/120.0, /*queue_ns=*/100.0,
                   /*accepting=*/true, /*admissible=*/false, /*breaker=*/1},
                  {/*score_ns=*/80.0, /*queue_ns=*/0.0, /*accepting=*/true,
                   /*admissible=*/true, /*breaker=*/0}};
  obs::SchedEvent open = MakeEvent(obs::SchedEventKind::kBreakerOpen, 2.0);
  open.backend = 0;
  open.value = 52.0;  // reopen time
  obs::SchedEvent serve = MakeEvent(obs::SchedEventKind::kServe, 45.0, 7);
  serve.backend = 1;
  serve.value = 40.0;
  serve.label = "label with \"quotes\"";
  log.Append(open);
  log.Append(route);
  log.Append(serve);
  return log;
}

TEST(EventLogTest, JsonRoundTripIsExact) {
  const obs::EventLog log = RichLog();
  const std::string json = log.ToJson();
  const auto parsed = obs::EventLog::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), log.size());
  EXPECT_EQ(parsed->total_appended(), log.total_appended());
  EXPECT_EQ(parsed->dropped(), log.dropped());
  EXPECT_EQ(parsed->backend_names(), log.backend_names());
  // Serializing the parse reproduces the original bytes (the determinism
  // `explain` and the verify scripts rely on).
  EXPECT_EQ(parsed->ToJson(), json);
  EXPECT_FALSE(obs::EventLog::FromJson("{\"events\": 3}").ok());
  EXPECT_FALSE(obs::EventLog::FromJson("[]").ok());
}

TEST(ExplainTest, TimelineReconstructsTerminalAndLatency) {
  const obs::EventLog log = RichLog();
  const obs::QueryTimeline t = obs::BuildQueryTimeline(log, 7);
  EXPECT_EQ(t.query, 7u);
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.arrival_ns, 5.0);
  EXPECT_EQ(t.terminal, "serve");
  EXPECT_EQ(t.latency_ns, 40.0);
  EXPECT_TRUE(t.complete);

  const obs::QueryTimeline none = obs::BuildQueryTimeline(log, 99);
  EXPECT_TRUE(none.events.empty());
  EXPECT_FALSE(none.complete);
}

TEST(ExplainTest, RenderAnnotatesBreakerOverride) {
  const obs::EventLog log = RichLog();
  const std::string text =
      obs::RenderTimeline(log, obs::BuildQueryTimeline(log, 7));
  // The policy preferred fpga, but its breaker opened at t=2ns.
  EXPECT_NE(text.find("route -> cpu"), std::string::npos);
  EXPECT_NE(text.find("policy preferred fpga"), std::string::npos);
  EXPECT_NE(text.find("breaker was open since t=2ns"), std::string::npos);
  EXPECT_NE(text.find("breaker=open"), std::string::npos);
}

TEST(ExplainTest, RankWorstPutsDeadlineMissesFirst) {
  obs::EventLog log;
  // Query 1: served fast. Query 2: served slow. Query 3: deadline miss.
  obs::SchedEvent e = MakeEvent(obs::SchedEventKind::kRoute, 1.0, 1);
  log.Append(e);
  e = MakeEvent(obs::SchedEventKind::kServe, 2.0, 1);
  e.value = 1.0;
  log.Append(e);
  e = MakeEvent(obs::SchedEventKind::kRoute, 1.0, 2);
  log.Append(e);
  e = MakeEvent(obs::SchedEventKind::kServe, 90.0, 2);
  e.value = 89.0;
  log.Append(e);
  e = MakeEvent(obs::SchedEventKind::kRoute, 3.0, 3);
  log.Append(e);
  log.Append(MakeEvent(obs::SchedEventKind::kDeadlineMiss, 50.0, 3));

  const auto worst = obs::RankWorstQueries(log, 2);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].query, 3u);
  EXPECT_EQ(worst[0].terminal, "deadline-miss");
  EXPECT_EQ(worst[1].query, 2u);  // slowest served next
  EXPECT_TRUE(worst[0].complete);
}

TEST(PostmortemTest, WindowContainsAlertAndCountsActivity) {
  obs::EventLog log;
  log.Append(MakeEvent(obs::SchedEventKind::kAdmit, 10.0, 1));
  obs::SchedEvent open = MakeEvent(obs::SchedEventKind::kBreakerOpen, 80.0);
  open.backend = 0;
  log.Append(open);
  log.Append(MakeEvent(obs::SchedEventKind::kShed, 90.0, 2));
  log.Append(MakeEvent(obs::SchedEventKind::kShed, 150.0, 3));  // after alert

  obs::SloSpec spec;
  spec.latency_threshold_ns = 100.0;
  spec.objective = 0.99;
  spec.rules.push_back({"page", /*long=*/50.0, /*short=*/10.0, 14.4});
  obs::SloReport slo;
  slo.name = "latency";
  slo.objective = 0.99;
  slo.total = 4;
  slo.bad = 2;
  slo.rules.push_back({"page", 14.4, /*fired=*/true,
                       /*first_alert_ns=*/100.0, /*peak_burn=*/30.0});
  slo.alerted = true;

  const obs::PostmortemTrigger trigger(log);
  const obs::PostmortemReport report = trigger.Trigger(spec, slo);
  ASSERT_EQ(report.alerts.size(), 1u);
  const obs::PostmortemAlert& alert = report.alerts[0];
  EXPECT_EQ(alert.alert_ns, 100.0);
  // Window = [alert - rule long window, alert]; always contains the alert.
  EXPECT_EQ(alert.window_begin_ns, 50.0);
  EXPECT_LE(alert.window_begin_ns, alert.alert_ns);
  EXPECT_EQ(alert.events_in_window, 2u);  // breaker-open + first shed
  for (const obs::SchedEvent& e : alert.events) {
    EXPECT_GE(e.time_ns, alert.window_begin_ns);
    EXPECT_LE(e.time_ns, alert.alert_ns);
  }
  // Activity diff: sheds total 2, in window 1; the admit is outside.
  for (std::size_t k = 0; k < alert.kind_names.size(); ++k) {
    if (alert.kind_names[k] == std::string("shed")) {
      EXPECT_EQ(alert.kind_window_counts[k], 1u);
      EXPECT_EQ(alert.kind_total_counts[k], 2u);
    }
    if (alert.kind_names[k] == std::string("admit")) {
      EXPECT_EQ(alert.kind_window_counts[k], 0u);
    }
  }
  ASSERT_EQ(alert.breaker_states.size(), 1u);
  EXPECT_EQ(alert.breaker_states[0], "open");
  EXPECT_EQ(alert.breaker_open_since_ns[0], 80.0);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"alerts\""), std::string::npos);
  EXPECT_NE(json.find("\"activity\""), std::string::npos);
}

TEST(PostmortemTest, NothingFiredYieldsEmptyAlertsButBudgetNumbers) {
  const obs::EventLog log = RichLog();
  obs::SloSpec spec;
  obs::SloReport slo;
  slo.total = 10;
  slo.error_budget_remaining = 0.75;
  const obs::PostmortemReport report =
      obs::PostmortemTrigger(log).Trigger(spec, slo);
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_EQ(report.total, 10u);
  EXPECT_EQ(report.error_budget_remaining, 0.75);
}

TEST(ExporterTest, HelpPrecedesTypePrecedesSamples) {
  MetricsRegistry registry;
  registry.counter("hits_total", {{"kind", "hbm"}}).Inc(3);
  registry.counter("hits_total", {{"kind", "ddr"}}).Inc(1);
  registry.SetHelp("hits_total", "accesses that hit");
  registry.gauge("depth").Set(2.0);  // no help set: generic fallback
  registry.histogram("latency_ns").Observe(5.0);
  registry.SetHelp("latency_ns", "line1\nline2\\tail");

  const std::string prom = registry.ToPrometheus();
  const struct {
    const char* help;
    const char* type;
    const char* sample;
  } families[] = {
      {"# HELP hits_total accesses that hit", "# TYPE hits_total counter",
       "hits_total{kind=\"ddr\"} 1"},
      {"# HELP depth microrec metric depth", "# TYPE depth gauge",
       "depth 2"},
      // Newlines and backslashes in HELP text are escaped per the
      // exposition format.
      {"# HELP latency_ns line1\\nline2\\\\tail",
       "# TYPE latency_ns histogram", "latency_ns_count 1"},
  };
  for (const auto& f : families) {
    const std::size_t help_pos = prom.find(f.help);
    const std::size_t type_pos = prom.find(f.type);
    const std::size_t sample_pos = prom.find(f.sample);
    ASSERT_NE(help_pos, std::string::npos) << f.help << "\n" << prom;
    ASSERT_NE(type_pos, std::string::npos) << f.type;
    ASSERT_NE(sample_pos, std::string::npos) << f.sample;
    EXPECT_LT(help_pos, type_pos) << f.help;
    EXPECT_LT(type_pos, sample_pos) << f.type;
  }
  // One HELP + TYPE pair per family, not per label set.
  std::size_t count = 0;
  for (std::size_t pos = prom.find("# HELP hits_total");
       pos != std::string::npos;
       pos = prom.find("# HELP hits_total", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  // Snapshots carry the help text.
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.help.at("hits_total"), "accesses that hit");
}

}  // namespace
}  // namespace microrec
