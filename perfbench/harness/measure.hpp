// Measurement primitives shared by every perfbench workload: wall clock,
// order statistics with the tail-reporting rule, the heap-allocation
// counter, peak RSS, result digests, the host/build fingerprint, and an
// in-memory span tracer written out as a Chrome/Perfetto trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
double SecondsBetween(Clock::time_point a, Clock::time_point b);

/// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// A tail percentile together with the evidence behind it.
struct TailValue {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples ranked strictly above it
};

/// At least this many samples must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinSamplesBeyondTail = 10;

/// The q-quantile of `samples` by nearest rank (the value at 1-based rank
/// ceil(q * n) of the sorted samples), or nullopt when fewer than
/// kMinSamplesBeyondTail samples rank above it -- a tail estimated from a
/// handful of points is not reported at all.
std::optional<TailValue> TailPercentile(std::vector<double> samples, double q);

/// The detail line for the q-quantile of `samples_us`: its value with the
/// sample count behind it, or why it is not reported.
std::string DescribeTail(const std::vector<double>& samples_us, double q);

/// Heap allocations (every operator new overload) made by any thread of
/// this process so far; see alloc_hook.cpp.
std::uint64_t AllocationCount();

/// Peak resident set size of this process, in MiB.
double PeakRssMiB();

/// CPUs this process may run on (what `nproc` prints).
std::size_t HostCpus();

/// The thread count every threaded workload uses: min(HostCpus(), 4).
std::size_t WorkloadThreads();

/// FNV-1a over the bit patterns of the values added, so two reports digest
/// equal iff every field is bit-identical.
class Digest {
 public:
  void Add(std::uint64_t v);
  void Add(double v);
  void Add(float v);
  void Add(const std::string& s);
  std::uint64_t value() const { return hash_; }

 private:
  void AddBytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Digest of a float vector (one InferBatch output).
std::uint64_t DigestFloats(std::span<const float> values);

/// printf-style formatting of up to three numbers into a detail line.
std::string Fmt(const char* format, double a, double b = 0.0, double c = 0.0);

/// "0x" + 16 hex digits.
std::string Hex(std::uint64_t v);

/// Host and build facts that decide whether two results are comparable:
/// CPU count, AVX2/FMA, perf_event availability, compiler and flags. The
/// source revision is added by run.py, which can see the checkout.
std::string FingerprintJson();

/// One timed call into a layer. `parent` is the id of the enclosing span,
/// or -1 for a root.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::uint32_t tid = 0;

  double duration_ms() const { return (end_ns - start_ns) / 1e6; }
  double duration_us() const { return (end_ns - start_ns) / 1e3; }
};

/// Keeps spans in memory (thread-safe) and writes them out once, at the
/// end of a traced run. Timestamps are steady-clock nanoseconds relative
/// to the tracer's construction.
class SpanTracer {
 public:
  SpanTracer();

  /// Nanoseconds since construction.
  std::int64_t Now() const;

  /// Reserves an id for a span that will be recorded later (so children
  /// can name it as their parent before it ends).
  std::int64_t NextId();

  /// Records a finished span with a previously reserved id. Never throws:
  /// a span that cannot be stored is counted in dropped().
  void Record(const char* name, std::int64_t id, std::int64_t parent,
              std::int64_t start_ns, std::int64_t end_ns);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Spans lost to allocation failure.
  std::uint64_t dropped() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path, const std::string& workload,
                        const std::string& metadata_json) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;   // guarded by mutex_
  std::int64_t next_id_ = 0;  // guarded by mutex_
  std::uint64_t dropped_ = 0; // guarded by mutex_
};

/// RAII span: reserves its id on entry and records on exit. A null tracer
/// makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, const char* name, std::int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanTracer* tracer_;
  const char* name_;
  std::int64_t id_ = -1;
  std::int64_t parent_;
  std::int64_t start_ns_ = 0;
};

/// What one workload run hands back to main: the operation counts behind
/// `failed`, the metric values by name, and human-readable detail lines
/// printed ahead of the result line.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;  ///< false if any output check failed
  std::map<std::string, double> metrics;
  std::vector<std::string> details;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where a traced run writes its span trace
};

/// Runs `setup()` `repeats` times and returns the median of their wall
/// times (s); each call replaces the previous set-up, so the last is kept.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  return Median(std::move(times));
}

}  // namespace perfbench
