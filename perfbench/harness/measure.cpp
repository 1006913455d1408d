#include "measure.hpp"

#include <linux/perf_event.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 1-based nearest rank of the q-quantile among n samples, in [1, n].
std::size_t NearestRank(std::size_t n, double q) {
  // The epsilon keeps q * n that should be whole (0.9 * 100) from
  // rounding up past its rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

std::optional<TailValue> TailPercentile(std::vector<double> samples,
                                        double q) {
  if (samples.empty()) return std::nullopt;
  const std::size_t n = samples.size();
  const std::size_t rank = NearestRank(n, q);
  if (n - rank < kMinSamplesBeyondTail) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return TailValue{samples[rank - 1], n, n - rank};
}

std::string DescribeTail(const std::vector<double>& samples_us, double q) {
  if (const auto tail = TailPercentile(samples_us, q)) {
    return Fmt("latency p%g: %.2f us", q * 100.0, tail->value) +
           Fmt(" over %.0f samples (%.0f beyond)",
               static_cast<double>(tail->samples),
               static_cast<double>(tail->beyond));
  }
  return Fmt("latency p%g: not reported (fewer than 10 of %.0f samples "
             "beyond it)",
             q * 100.0, static_cast<double>(samples_us.size()));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t WorkloadThreads() { return std::min<std::size_t>(HostCpus(), 4); }

void Digest::AddBytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ull;
  }
}

void Digest::Add(std::uint64_t v) { AddBytes(&v, sizeof(v)); }
void Digest::Add(double v) { AddBytes(&v, sizeof(v)); }
void Digest::Add(float v) { AddBytes(&v, sizeof(v)); }
void Digest::Add(const std::string& s) {
  Add(static_cast<std::uint64_t>(s.size()));
  AddBytes(s.data(), s.size());
}

std::uint64_t DigestFloats(std::span<const float> values) {
  Digest d;
  for (float v : values) d.Add(v);
  return d.value();
}

std::string Fmt(const char* format, double a, double b, double c) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// True if this process may open a hardware cycle counter.
bool PerfEventAvailable() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

}  // namespace

std::string FingerprintJson() {
  std::string json = "{\"nproc\": " + std::to_string(HostCpus());
  json += ", \"workload_threads\": " + std::to_string(WorkloadThreads());
  json += std::string(", \"avx2\": ") +
          (__builtin_cpu_supports("avx2") ? "true" : "false");
  json += std::string(", \"fma\": ") +
          (__builtin_cpu_supports("fma") ? "true" : "false");
  json += std::string(", \"perf_event\": ") +
          (PerfEventAvailable() ? "true" : "false");
  json += ", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  json += ", \"flags\": \"" PERFBENCH_FLAGS "\"}";
  return json;
}

SpanTracer::SpanTracer() : origin_(Clock::now()) {}

std::int64_t SpanTracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int64_t SpanTracer::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanTracer::Record(const char* name, std::int64_t id,
                        std::int64_t parent, std::int64_t start_ns,
                        std::int64_t end_ns) {
  const auto tid = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, tid});
  } catch (const std::bad_alloc&) {
    ++dropped_;  // Record runs in ScopedSpan's destructor: never throw
  }
}

std::uint64_t SpanTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<Span> SpanTracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanTracer::WriteChromeTrace(const std::string& path,
                                  const std::string& workload,
                                  const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"metadata\": " << metadata_json
      << ", \"traceEvents\": [";
  const std::vector<Span> all = spans();
  char buf[320];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %lld, \"parent\": %lld, \"workload\": \"%s\"}}",
                  i == 0 ? "" : ",", s.name, s.tid, s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), workload.c_str());
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanTracer* tracer, const char* name,
                       std::int64_t parent)
    : tracer_(tracer), name_(name), parent_(parent) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextId();
  start_ns_ = tracer_->Now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->Record(name_, id_, parent_, start_ns_, tracer_->Now());
}

}  // namespace perfbench
