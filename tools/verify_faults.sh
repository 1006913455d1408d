#!/usr/bin/env bash
# Fault-injection smoke of the verify path: builds the main tree, generates
# a model, runs `microrec fault-sweep`, and asserts the JSON artifact is
# non-empty and carries sweep records plus the zero-failure baseline.
# Also runs bench_ablation_faults, which runs the same fault sweep
# (sched/fault_sweep.hpp) and exits non-zero if a zero-failure point is not
# field-for-field identical to a fault-free pipeline pool, and the
# fault-tolerance leg: the fault-sweep and chaos suites (the sweep's priced
# pools, circuit breakers, backend fault models, the fault-tolerant
# scheduler, recovery metrics, the chaos sweep) under ctest, a
# `microrec chaos-sweep` smoke with a JSON artifact,
# and bench_chaos, which exits non-zero when the breaker+retry+hedge
# headline is lost, the threaded rerun diverges, or the zero-intensity
# points drift from the healthy scheduler.
# Usage: tools/verify_faults.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build"}"

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)" --target microrec bench_ablation_faults \
  bench_chaos faults_test sched_test chaos_test

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$build/tools/microrec" modelgen small --out "$workdir/model.txt" >/dev/null
# --fault-max-failed is the canonical spelling; the legacy --max-failed
# alias must keep working (both are exercised).
"$build/tools/microrec" fault-sweep "$workdir/model.txt" \
  --queries 2000 --fault-max-failed 3 --json "$workdir/faults.json" >/dev/null
"$build/tools/microrec" fault-sweep "$workdir/model.txt" \
  --queries 500 --max-failed 1 >/dev/null

test -s "$workdir/faults.json" || {
  echo "FAIL: fault-sweep wrote an empty JSON artifact" >&2
  exit 1
}
grep -q '"command": "fault-sweep"' "$workdir/faults.json"
grep -q '"records"' "$workdir/faults.json"
grep -q '"failed_channels": 0' "$workdir/faults.json"

(cd "$workdir" && "$build/bench/bench_ablation_faults" >/dev/null)
grep -q '"zero_fault_identity": true' "$workdir/BENCH_ablation_faults.json"

# Fault-tolerance leg: unit suites, the chaos-sweep CLI, and the
# self-gating chaos bench.
ctest --test-dir "$build" --output-on-failure --no-tests=error \
  -R 'FaultSchedule|RetryPolicy|FaultSweepTest|CircuitBreaker|BackendFaultModel|FtScheduler|Recovery|ChaosSweep|SchedServing'

"$build/tools/microrec" chaos-sweep --queries 2000 --fault-points 2 \
  --json "$workdir/chaos.json" >/dev/null
grep -q '"command": "chaos-sweep"' "$workdir/chaos.json"
grep -q '"headline_win"' "$workdir/chaos.json"

(cd "$workdir" && "$build/bench/bench_chaos" >/dev/null)
grep -q '"headline_win": true' "$workdir/BENCH_chaos.json"

echo "faults verify OK (sweep JSON + zero-fault identity + chaos headline)"
