// Subcommands of the `microrec` CLI tool. Each command is a pure function
// over parsed arguments and an output stream so tests can drive it without
// a process boundary; the thin main() in tools/microrec.cpp dispatches.
//
//   microrec modelgen <small|large|dlrm> [--tables N] [--veclen L] [--out F]
//   microrec inspect  <model-file>
//   microrec plan     <model-file> [--no-cartesian] [--no-onchip] [--out F]
//   microrec record   <model-file> [--queries N] [--qps R] [--seed S]
//                     [--zipf THETA] [--out F]
//   microrec simulate <model-file> [--plan F] [--trace F]
//                     [--precision 16|32] [--items N]
//   microrec trace    <model-file> [--queries N] [--qps R] [--seed S]
//                     [--sample N] [--trace-out F] [--metrics-out F]
//                     [--prom-out F] [--timeline] [--timeline-out F]
//                     [--slo] [--sla-us U]
//   microrec update-sweep <model-file> [--queries N] [--qps R] [--seed S]
//                     [--points K] [--update-qps-max U] [--policy fair|yield]
//                     [--json F] [--threads T]
//   microrec fault-sweep <model-file> [--queries N] [--qps R] [--seed S]
//                     [--max-failed K] [--json F] [--threads T]
//   microrec scaleout <model-file> [--queries N] [--seed S] [--points K]
//                     [--qps-min R] [--qps-max R] [--sla-us U] [--json F]
//                     [--threads T]
//   microrec sched-sweep [--queries N] [--qps R] [--seed S] [--sla-us U]
//                     [--json F] [--threads T] [--record-events F]
//                     [--postmortem F]
//   microrec chaos-sweep [--queries N] [--qps R] [--seed S] [--sla-us U]
//                     [--fault-intensity-max F] [--fault-points K]
//                     [--fault-seed S] [--json F] [--threads T]
//                     [--record-events F] [--postmortem F]
//   microrec explain  <events-file> [--query ID] [--worst N]
//   microrec perfgate --current-dir D [--baseline-dir D] [--tolerance F]
//                     [--tol metric=F,metric=F]
//   microrec profile  [model-file] [--batch N] [--batches K] [--seed S]
//                     [--backend perf|timer] [--max-rows N] [--json F]
//                     [--prom-out F]
//
// The sweep commands take --threads T (0 = one per hardware thread): the
// experiment grid runs on the deterministic parallel runner (src/exec/),
// so stdout and any JSON output are byte-identical at every thread count.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "common/status.hpp"

namespace microrec::cli {

Status CmdModelGen(const ArgList& args, std::ostream& out);
Status CmdInspect(const ArgList& args, std::ostream& out);
Status CmdPlan(const ArgList& args, std::ostream& out);

/// Records a Poisson query trace (indices + arrival times) for replay with
/// `simulate --trace`.
Status CmdRecord(const ArgList& args, std::ostream& out);
Status CmdSimulate(const ArgList& args, std::ostream& out);

/// Runs the full-system simulator with telemetry attached and writes a
/// Chrome trace-event JSON (Perfetto-loadable), a structured metrics JSON,
/// and a Prometheus text snapshot; prints the per-stage latency-attribution
/// table (stage shares sum to the p99-ranked item's end-to-end latency)
/// and the critical-path p99 drilldown (obs/attribution.hpp). --timeline
/// additionally records per-bank utilization/backlog time series into
/// timeline.json; --slo evaluates a burn-rate SLO (threshold --sla-us)
/// over the sampled queries.
Status CmdTrace(const ArgList& args, std::ostream& out);

/// Sweeps the online embedding-update rate against a fixed query stream and
/// reports tail latency + snapshot staleness per point (src/update/).
Status CmdUpdateSweep(const ArgList& args, std::ostream& out);

/// Sweeps the number of failed HBM channels at replication factors 1/2/4
/// and reports availability, shed rate, and degraded p50/p99 per point
/// (src/faults/): "what does a lost channel cost, and how many replicas
/// buy it back?".
Status CmdFaultSweep(const ArgList& args, std::ostream& out);

/// Sweeps target traffic geometrically between --qps-min and --qps-max,
/// provisions an FPGA fleet per point (cost-appendix economics), and
/// simulates each provisioned fleet -- plus the same fleet one card short
/// -- against its own Poisson arrival stream (src/serving/scaleout.hpp).
Status CmdScaleout(const ArgList& args, std::ostream& out);

/// Sweeps scheduling policy x arrival process over the standard four-path
/// backend fleet (src/sched/): per point, served fraction, tail latency,
/// SLO bad fraction, and the per-backend routing mix; then the headline
/// comparison of slo-aware routing against the best static single-backend
/// policy on p99 under each bursty process.
Status CmdSchedSweep(const ArgList& args, std::ostream& out);

/// Sweeps fault intensity x serving policy over the standard fleet with
/// every backend behind a fault-injected wrapper (src/sched/chaos.hpp):
/// per point, availability, tail latency, goodput, retry/hedge/timeout
/// accounting, and per-fault-window recovery metrics; then the headline
/// comparison of breaker+retry+hedge scheduling against every static
/// single-path policy on p99, goodput, and time-to-recover.
Status CmdChaosSweep(const ArgList& args, std::ostream& out);

/// Reads a flight-recorder event log (sched-sweep / chaos-sweep
/// --record-events) and reconstructs causal per-query timelines
/// (obs/explain.hpp): the log summary plus either the --worst N ranked
/// offenders (deadline misses first, default 3) or one --query's full
/// admit -> terminal sequence, with routing overrides annotated from the
/// recorded probes and breaker transitions.
Status CmdExplain(const ArgList& args, std::ostream& out);

/// Compares freshly generated BENCH_*.json reports in --current-dir against
/// the checked-in baselines in --baseline-dir (default bench/baselines) and
/// returns non-OK when any numeric metric drifts outside tolerance
/// (obs/perfgate.hpp). CI runs this as the perf-regression gate.
Status CmdPerfGate(const ArgList& args, std::ostream& out);

/// Profiles the measured CPU engine on real hardware (obs/prof/): runs
/// `--batches` inference batches of `--batch` queries through a 1-thread
/// CpuEngine with the hardware profiler attached, probes this machine's
/// roofline ceilings, and prints the phase table (gather / gemm /
/// head_sigmoid / batch with IPC, LLC miss rate, achieved GB/s / GOP/s,
/// percent-of-roof, memory- vs compute-bound verdict) plus per-batch
/// wall-clock p50/p95/p99. Writes profile.json (--json) and optionally a
/// Prometheus snapshot (--prom-out). --backend timer skips perf_event;
/// the default requests it and degrades gracefully when the kernel
/// refuses (containers, perf_event_paranoid) -- profile.json records the
/// tier that actually ran.
Status CmdProfile(const ArgList& args, std::ostream& out);

/// Reruns the reproduction's calibration anchors (Table 5 lookup points,
/// the GOP/s identity, Table 3 placement structure, event-sim agreement)
/// and reports PASS/FAIL per check. Returns non-OK if any check fails.
Status CmdSelfCheck(const ArgList& args, std::ostream& out);

/// Dispatches `tokens` (argv without the program name) to a subcommand.
/// Unknown / missing subcommands print usage and return InvalidArgument; a
/// command that cannot allocate the sizes its arguments ask for returns
/// ResourceExhausted.
Status RunCli(const std::vector<std::string>& tokens, std::ostream& out);

/// The usage text.
std::string UsageText();

}  // namespace microrec::cli
