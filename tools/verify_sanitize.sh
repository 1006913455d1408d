#!/usr/bin/env bash
# Sanitizer leg of the tier-1 verify path: configures a dedicated build tree
# with the sanitizers named in $MICROREC_SANITIZE (default
# address,undefined) and runs the tests most exposed to
# memory/concurrency bugs -- the update subsystem (its delta stream, the
# RNG and Zipf sampler that stream replays and draws from, and the write
# injector's per-batch scratch and route map), the hot cache, the
# embedding/Cartesian layer, and the fault-schedule / failover / fault-sweep
# machinery (shed-lookup bookkeeping, retry policy, schedule generation),
# plus the telemetry layer (metrics registry, histograms, span tracer,
# identity gates) and its analysis layer (critical-path attribution, time
# series, SLO burn rate, perf gate, JSON reader), the
# concurrency-sensitive PercentileTracker/logging
# paths, and the parallel experiment engine (thread pool, ParallelRunner,
# cross-thread determinism) with the memsim hot path it
# drives, and the multi-path scheduling subsystem (load generator, backend
# adapters with their completion heaps, routing policies, the threaded
# sweep grid), and the fault-tolerance stack on top of it (circuit
# breakers, backend fault models, the event-loop scheduler's re-admission
# bookkeeping, recovery metrics, the chaos sweep), and the flight
# recorder on top of that (event ring, timeline reconstruction,
# postmortem snapshots, the recorder-attached identity gates), and the
# vectorized CPU hot path (packed row layout, AVX2 gather/sum-pool vs
# scalar, fused GEMM/GEMV epilogues, the zero-allocation inference
# scratch, and the CpuEngine dispatch over them
# -- exactly the code where a lane off-by-one or a padded-tail overread
# would live), and the hardware profiling layer (perf_event group
# open/close lifecycle, counter-scaling math, ProfScope RAII under
# exceptions, the profiler-attached engine identity gates).
# Usage:
#   [MICROREC_SANITIZE=list] tools/verify_sanitize.sh [build-dir] [ctest -R regex]
# The regex matches ctest's discovered names (Suite.Test, e.g. "HotCache").
# Pass '.' as the regex to run the full suite under sanitizers (slower).
# ThreadSanitizer cannot share a build with ASan, so it gets its own tree
# and the suites that run work on pool threads (ZipfTest races threads on
# the harmonic-sum memo; ChaosSweep serves its fleets on pool workers):
#   MICROREC_SANITIZE=thread tools/verify_sanitize.sh build-tsan \
#     'ThreadPool|ParallelRunner|ParallelDeterminism|CpuEngine|ZeroAlloc|ZipfTest|ChaosSweep'
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitize="${MICROREC_SANITIZE:-address,undefined}"
build="${1:-"$repo/build-asan"}"
filter="${2:-"Update|DeltaStream|WriteInjector|RngTest|ZipfTest|HotCache|Embedding|Combined|Hybrid|FaultSchedule|Failover|RetryPolicy|FaultSweepTest|FailureDeath|Scaleout|ProvisionFleet|Metrics|Histogram|Exporter|JsonWriter|JsonReader|SpanTracer|TelemetryIdentity|Attribution|TimeSeries|Slo|PerfGate|Quantiles|PercentileTracker|Logging|ThreadPool|ParallelRunner|ParallelDeterminism|BankModelOracle|HybridMemory|LoadGen|SchedBackend|SchedPolicy|SchedServing|SchedSweep|CircuitBreaker|BackendFaultModel|FtScheduler|Recovery|ChaosSweep|EventLog|Explain|Postmortem|FlightRecorder|Gather|PackedRow|GemmFused|GemvFused|MatrixCapacity|ZeroAlloc|CpuEngine|MlpModel|CounterScaling|ProfScope|HwProfiler|Roofline|ProfReport|ProfIdentity"}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMICROREC_SANITIZE="$sanitize" \
  -DMICROREC_BUILD_BENCHES=OFF \
  -DMICROREC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$build" -j "$(nproc)"

# halt_on_error makes UBSan and TSan findings fail the run instead of just
# logging.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
# --no-tests=error only catches a filter that matches nothing at all; a
# stale alternative (a suite renamed or deleted) would silently drop out of
# the leg, so every top-level '|' alternative must match a test on its own.
IFS='|' read -r -a alternatives <<<"$filter"
for alternative in "${alternatives[@]}"; do
  listed="$(ctest --test-dir "$build" -N -R "$alternative")"
  if ! grep -q '^Total Tests: [1-9]' <<<"$listed"; then
    echo "FAIL: filter alternative '$alternative' matches no test" >&2
    exit 1
  fi
done
ctest --test-dir "$build" --output-on-failure --no-tests=error -R "$filter"
echo "sanitizer verify OK ($sanitize: $filter)"
