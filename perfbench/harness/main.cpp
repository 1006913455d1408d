// perfbench: the repo's benchmark executable. perfbench/run.py builds it and
// forwards its arguments:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]
//
// prints detail lines, a host/build fingerprint line, and, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the span trace is written to D.
//
// Auxiliary modes used by the benchmark's own tests:
//   perfbench --list-metrics             every metric name, unit and kind
//   perfbench --input-digest --workload W --seed N
//   perfbench --print-digests --seed N   serial sim sweep digests
//   perfbench --self-test                checks of the statistics helpers
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"engine-batch", "engine-online", "sim-fleet",
                                  "sim-accel"};

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
  /// Workloads that measure it (space-separated); empty = all.
  const char* measured_on;
};

constexpr const char* kEngines = "engine-batch engine-online";
constexpr const char* kSims = "sim-fleet sim-accel";

const MetricDef kMetrics[] = {
    // End to end: every workload.
    {"setup_s", "s", false, ""},
    {"qps", "queries/s", false, ""},
    {"latency_p50_us", "us", false, ""},
    {"setup_peak_rss_mb", "MiB", false, ""},
    // Per layer: measured CPU engine.
    {"cpu.embedding_us", "us", true, kEngines},
    {"cpu.embedding_gbs", "GB/s", true, kEngines},
    {"cpu.gather_bytes_per_query", "B", true, kEngines},
    {"nn.mlp_us", "us", true, kEngines},
    {"nn.mlp_gops", "GOP/s", true, kEngines},
    {"cpu.glue_us", "us", true, kEngines},
    {"cpu.allocs_per_call", "count", true, kEngines},
    {"cpu.thread_scaling", "x", true, "engine-batch"},
    {"cpu.engine_build_ms", "ms", true, kEngines},
    {"workload.query_gen_ms", "ms", true, "engine-batch engine-online sim-accel"},
    // Per layer: simulator.
    {"core.engine_build_ms", "ms", true, "sim-accel"},
    {"sched.load_gen_ms", "ms", true, "sim-fleet"},
    {"sched.fleet_build_ms", "ms", true, "sim-fleet"},
    {"sched.loop_ms.static", "ms", true, "sim-fleet"},
    {"sched.loop_ms.ft", "ms", true, "sim-fleet"},
    {"sched.cancelled_frac", "ratio", true, "sim-fleet"},
    {"sched.retries", "count", true, "sim-fleet"},
    {"sched.hedges", "count", true, "sim-fleet"},
    {"obs.recovery_ms", "ms", true, "sim-fleet"},
    {"update.point_ms.read_only", "ms", true, "sim-accel"},
    {"update.point_ms.writes", "ms", true, "sim-accel"},
    {"update.delayed_frac", "ratio", true, "sim-accel"},
    {"update.rows_per_query", "ratio", true, "sim-accel"},
    {"exec.parallel_efficiency", "ratio", true, kSims},
    {"exec.straggler_ratio", "ratio", true, kSims},
    {"process.peak_rss_mb", "MiB", true, ""},
    {"trace.overhead_pct", "%", true, ""},
};

bool MeasuredOn(const MetricDef& m, const std::string& workload) {
  if (m.measured_on[0] == '\0') return true;
  const std::string list = std::string(" ") + m.measured_on + " ";
  return list.find(" " + workload + " ") != std::string::npos;
}

bool KnownWorkload(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints the detail lines, the fingerprint, the operation counts and the
/// result line. Metrics a workload does not measure are reported as 0 and
/// named in a detail line.
void PrintResult(const RunOptions& o, RunResult& r) {
  std::vector<std::string> not_measured;
  std::string metrics;
  for (const MetricDef& m : kMetrics) {
    if (m.per_layer != o.trace) continue;
    double value = 0.0;
    if (const auto it = r.metrics.find(m.name); it != r.metrics.end()) {
      value = it->second;
    } else if (MeasuredOn(m, o.workload)) {
      r.details.push_back(std::string("error: metric not produced: ") + m.name);
      r.checks_passed = false;
    } else {
      not_measured.push_back(m.name);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  if (!not_measured.empty()) {
    std::string line = "not measured on " + o.workload + " (reported as 0):";
    for (const auto& n : not_measured) line += " " + n;
    r.details.push_back(line);
  }
  for (const auto& d : r.details) std::printf("# %s\n", d.c_str());
  std::printf("{\"fingerprint\": %s}\n", FingerprintJson().c_str());
  std::printf("# operations on %s: sent %llu, succeeded %llu, failed %llu\n",
              o.workload.c_str(), static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.attempted - std::min(r.failed, r.attempted)),
              static_cast<unsigned long long>(r.failed));
  const bool correct = r.checks_passed && r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

int ListMetrics() {
  std::printf("[");
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    std::printf("%s\n{\"name\": \"%s\", \"unit\": \"%s\", \"kind\": \"%s\", "
                "\"measured_on\": \"%s\"}",
                first ? "" : ",", m.name, m.unit,
                m.per_layer ? "per_layer" : "end_to_end", m.measured_on);
    first = false;
  }
  std::printf("\n]\n");
  return 0;
}

void Check(bool ok, const char* what, int& failures) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

int SelfTest() {
  int failures = 0;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Check(Median(hundred) == 50.5, "median of 1..100 is 50.5", failures);
  const auto p90 = TailPercentile(hundred, 0.90);
  Check(p90 && p90->value == 90.0 && p90->beyond == 10 && p90->samples == 100,
        "p90 over 100 samples is reported with 10 beyond", failures);
  Check(!TailPercentile(hundred, 0.95),
        "p95 over 100 samples is not reported (5 beyond)", failures);
  Check(!TailPercentile(hundred, 0.99),
        "p99 over 100 samples is not reported (1 beyond)", failures);
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  const auto p99 = TailPercentile(thousand, 0.99);
  Check(p99 && p99->value == 990.0 && p99->beyond == 10,
        "p99 over 1000 unsorted samples is 990 with 10 beyond", failures);
  thousand.pop_back();
  Check(!TailPercentile(thousand, 0.99),
        "p99 over 999 samples is not reported (9 beyond)", failures);
  Check(!TailPercentile({}, 0.5), "no percentile of an empty sample",
        failures);
  Digest a, b;
  a.Add(1.0);
  b.Add(-1.0);
  Check(a.value() != b.value(), "digest separates values", failures);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload {engine-batch|"
               "engine-online|sim-fleet|sim-accel} --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               error);
  return 2;
}

bool ParseU64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return *end == '\0' && errno == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  o.out_dir = ".bench_build/trace";
  enum class Mode { kRun, kList, kInputDigest, kPrintDigests, kSelfTest };
  Mode mode = Mode::kRun;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--list-metrics") {
      mode = Mode::kList;
    } else if (arg == "--input-digest") {
      mode = Mode::kInputDigest;
    } else if (arg == "--print-digests") {
      mode = Mode::kPrintDigests;
    } else if (arg == "--self-test") {
      mode = Mode::kSelfTest;
    } else if (arg == "--workload" && value != nullptr) {
      o.workload = value;
      ++i;
    } else if (arg == "--seed" && ParseU64(value, n)) {
      o.seed = n;
      ++i;
    } else if (arg == "--seconds" && ParseU64(value, n) && n >= 1 && n <= 600) {
      o.seconds = static_cast<double>(n);
      ++i;
    } else if (arg == "--trace" && value != nullptr &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      o.trace = value[0] == '1';
      ++i;
    } else if (arg == "--out-dir" && value != nullptr) {
      o.out_dir = value;
      ++i;
    } else {
      return Usage(("bad argument: " + arg).c_str());
    }
  }

  switch (mode) {
    case Mode::kList:
      return ListMetrics();
    case Mode::kSelfTest:
      return SelfTest();
    case Mode::kPrintDigests:
      for (const char* w : {"sim-fleet", "sim-accel"}) {
        std::printf("%s:", w);
        for (std::uint64_t d : SerialSimDigests(w, o.seed)) {
          std::printf(" %s", Hex(d).c_str());
        }
        std::printf("\n");
      }
      return 0;
    case Mode::kInputDigest:
      if (!KnownWorkload(o.workload)) return Usage("unknown workload");
      std::printf("%s\n",
                  Hex(o.workload.rfind("engine", 0) == 0
                          ? EngineInputDigest(o.workload, o.seed)
                          : SimInputDigest(o.workload, o.seed))
                      .c_str());
      return 0;
    case Mode::kRun:
      break;
  }

  if (!KnownWorkload(o.workload)) return Usage("unknown or missing --workload");
  SpanTracer tracer;
  SpanTracer* t = o.trace ? &tracer : nullptr;
  RunResult r = o.workload.rfind("engine", 0) == 0 ? RunEngineWorkload(o, t)
                                                   : RunSimWorkload(o, t);
  if (o.trace) {
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (tracer.WriteChromeTrace(path, o.workload, FingerprintJson())) {
      r.details.push_back("span trace (" + std::to_string(tracer.spans().size()) +
                          " spans, " + std::to_string(tracer.dropped()) +
                          " dropped): " + path);
    } else {
      r.details.push_back("error: could not write span trace " + path);
      r.checks_passed = false;
    }
  }
  PrintResult(o, r);
  return 0;
}
