#!/usr/bin/env bash
# Perf-regression gate of the verify path: builds the deterministic bench
# binaries, regenerates their BENCH_*.json reports in a scratch directory,
# and compares them against the checked-in baselines in bench/baselines/
# with `microrec perfgate`. The simulator benches are byte-deterministic
# (fixed seeds, simulated time only -- bench_table2_end_to_end runs with
# --no-measure so no wall-clock numbers enter the report), so the default
# 5% tolerance is pure slack for cross-platform libm drift; any real model
# change trips the gate in either direction. bench_kernels and
# bench_wallclock DO measure wall-clock rates: their baselines declare
# those fields in a "volatile_metrics" meta (structure-checked, never
# value-compared), while the boolean gates -- avx2_supported, all_exact,
# cpu_match, cpu_speedup_batch256_ge_2, cpu_thread_scaling_ge_1p5 -- stay
# hard-compared so a silent scalar fallback, a lost speedup or an engine
# that stops using its threads fails the gate deterministically.
# volatile_metrics entries ending in '*' are prefix wildcards: the
# hardware-profiling sections declare "prof_*" once to cover every
# per-phase counter/roofline number (IPC, GB/s, roof %, latency
# percentiles, backend tier) instead of enumerating them, while the
# host-independent classification booleans -- gather_memory_bound,
# gemm_compute_bound -- and gemm_within_roof (the gemm phase at no more
# than 110% of the probed FMA roof) stay hard-compared so a misattributed
# phase or a roofline probe that reads low fails the gate even though the
# raw rates float.
#
# Usage: tools/check_perf_regression.sh [build-dir] [out-dir]
# Exit status is microrec perfgate's: non-zero when any metric drifts.
# To bless an intended change, copy the freshly generated files over
# bench/baselines/ (see EXPERIMENTS.md) and commit them with the change
# that caused the drift.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build"}"
out="${2:-}"

benches=(bench_full_system bench_table2_end_to_end bench_ablation_hot_cache
         bench_ablation_update_rate bench_ablation_faults bench_scheduler
         bench_chaos bench_kernels bench_wallclock)

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)" --target microrec "${benches[@]}"

if [[ -z "$out" ]]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi
mkdir -p "$out"
# The benches run from inside $out, so a relative build or out dir (e.g.
# `build perfgate-out`) must be resolved before the subshell changes into it.
build="$(cd "$build" && pwd)"
out="$(cd "$out" && pwd)"

# Each bench writes BENCH_<name>.json into its working directory.
(
  cd "$out"
  "$build/bench/bench_full_system" >full_system.log
  "$build/bench/bench_table2_end_to_end" --no-measure >table2.log
  "$build/bench/bench_ablation_hot_cache" >hot_cache.log
  "$build/bench/bench_ablation_update_rate" >update_rate.log
  "$build/bench/bench_ablation_faults" >faults.log
  "$build/bench/bench_scheduler" >scheduler.log
  "$build/bench/bench_chaos" >chaos.log
  "$build/bench/bench_kernels" >kernels.log
  "$build/bench/bench_wallclock" >wallclock.log
)

"$build/tools/microrec" perfgate \
  --baseline-dir "$repo/bench/baselines" \
  --current-dir "$out"
