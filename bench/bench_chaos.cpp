// Robustness extension: fault-tolerant scheduling under injected backend
// faults (src/sched/chaos.hpp; cf. the paper's healthy-platform serving
// assumptions -- this bench measures what happens when they break).
//
// Part (a): the fault-intensity x policy grid over the standard four-path
// fleet with every backend behind a fault-injected wrapper: availability,
// tail latency, goodput, retry/hedge accounting, and per-fault-window
// recovery per point.
// Part (b): the headline -- at full intensity, breaker+retry+hedge
// scheduling must beat every static single-path policy on BOTH p99 and
// goodput, recover from every fault window, while at least one static
// policy never recovers within the run (the run fails loudly otherwise).
// Part (c): the grid rerun with 4 worker threads -- and the flight
// recorder attached to the blessed point -- must be field-for-field
// identical to the serial unrecorded run (threads and recording both cost
// nothing).
// Part (d): the zero-intensity grid points must be bit-identical to the
// unwrapped healthy fleet run through the same event loop (the fault
// layer costs nothing when off).
// Part (e): the recorded event log must reconcile exactly with the
// blessed report's counters (every terminal accounted, no eviction).
// Emits BENCH_chaos.json alongside the table.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "obs/event_log.hpp"
#include "sched/chaos.hpp"
#include "sched/fleet.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/policy.hpp"

using namespace microrec;

namespace {

bool SameBaseReport(const sched::SchedReport& a, const sched::SchedReport& b) {
  bool same = a.offered == b.offered && a.served == b.served &&
              a.shed == b.shed && a.availability == b.availability &&
              a.serving.p50 == b.serving.p50 &&
              a.serving.p95 == b.serving.p95 &&
              a.serving.p99 == b.serving.p99 &&
              a.serving.max == b.serving.max &&
              a.serving.mean == b.serving.mean &&
              a.slo.bad_fraction == b.slo.bad_fraction &&
              a.usage.size() == b.usage.size();
  if (!same) return false;
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    same = same && a.usage[i].queries == b.usage[i].queries &&
           a.usage[i].items == b.usage[i].items;
  }
  return same;
}

bool SameRecord(const sched::ChaosRecord& a, const sched::ChaosRecord& b) {
  return a.intensity == b.intensity && a.policy == b.policy &&
         SameBaseReport(a.report.base, b.report.base) &&
         a.report.timed_out == b.report.timed_out &&
         a.report.retries == b.report.retries &&
         a.report.hedges == b.report.hedges &&
         a.report.hedge_wins == b.report.hedge_wins &&
         a.report.breaker_opens == b.report.breaker_opens &&
         a.recovery.all_recovered == b.recovery.all_recovered &&
         a.recovery.worst_time_to_recover_ns ==
             b.recovery.worst_time_to_recover_ns;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Chaos: fault-tolerant scheduling under injected backend faults",
      "robustness extension (fault model + breakers + hedged retries)");

  sched::ChaosSweepConfig config;  // the blessed defaults: 30k queries,
                                   // 500k QPS, seed 42, fault seed 7
  std::printf(
      "fleet: fpga | cpu | hot_cache | degraded, all fault-injected; "
      "%.0f QPS offered, %llu queries, %.0f us SLA, intensities 0..%.1f "
      "(%zu points)\n",
      config.qps, (unsigned long long)config.queries, config.sla_ns / 1000.0,
      config.intensity_max, config.intensity_points);

  const auto serial = sched::RunChaosSweep(config);

  // Part (c): rerunning on 4 worker threads, now with the flight recorder
  // attached to the blessed point, must change nothing in any record.
  sched::ChaosSweepConfig threaded_config = config;
  threaded_config.threads = 4;
  threaded_config.record_events = true;
  const auto threaded = sched::RunChaosSweep(threaded_config);
  bool threads_identical = serial.records.size() == threaded.records.size();
  for (std::size_t i = 0; threads_identical && i < serial.records.size();
       ++i) {
    threads_identical = SameRecord(serial.records[i], threaded.records[i]);
  }

  // Part (e): the recorded log reconciles exactly with the blessed
  // report's counters -- every offered query's terminal is in the log.
  const sched::ChaosRecord& blessed = threaded.records.back();
  bool recorder_consistent =
      blessed.events != nullptr && blessed.events->dropped() == 0;
  if (recorder_consistent) {
    // Retries and hedges reconcile against dispatched admits (kRetry /
    // kHedgeIssue record *scheduled* re-admissions, which the loop skips
    // when the query resolves before they fire).
    std::uint64_t serves = 0, hedge_wins = 0, misses = 0, retries = 0,
                  hedges = 0;
    for (const obs::SchedEvent& e : blessed.events->events()) {
      switch (e.kind) {
        case obs::SchedEventKind::kServe: ++serves; break;
        case obs::SchedEventKind::kHedgeWin: ++hedge_wins; break;
        case obs::SchedEventKind::kDeadlineMiss: ++misses; break;
        case obs::SchedEventKind::kAdmit:
          if (e.hedge) ++hedges;
          else if (e.attempt > 0) ++retries;
          break;
        default: break;
      }
    }
    const sched::FtSchedReport& r = blessed.report;
    recorder_consistent = serves + hedge_wins == r.base.served &&
                          hedge_wins == r.hedge_wins &&
                          misses == r.timed_out && retries == r.retries &&
                          hedges == r.hedges;
  }

  // Part (d): at intensity 0 every schedule is empty and the static /
  // queue-depth points run with the whole fault-tolerance layer disabled,
  // so they must be bit-identical to a fresh unwrapped fleet run through
  // the same event loop on the same stream (chaos.cpp's documented load:
  // one Poisson stream at the config's seed).
  const Nanoseconds span_ns =
      static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
  sched::LoadGenConfig load;
  load.process = sched::ArrivalProcess::kPoisson;
  load.rate_qps = config.qps;
  load.num_queries = config.queries;
  load.seed = config.seed;
  load.sizes = config.sizes;
  const auto stream = sched::GenerateLoad(load);
  sched::FtOptions healthy_options;
  healthy_options.base.sla_ns = config.sla_ns;
  healthy_options.base.slo_objective = config.slo_objective;
  bool zero_identity = true;
  const std::pair<std::size_t, std::size_t> zero_checks[] = {
      {sched::kChaosStaticFpga, sched::kFleetFpga},
      {sched::kChaosQueueDepth, sched::kFleetSize},  // kFleetSize = dynamic
  };
  for (const auto& [policy_index, static_backend] : zero_checks) {
    sched::FleetConfig fleet_config;
    fleet_config.seed = config.seed;
    fleet_config.horizon_ns = span_ns;
    fleet_config.lookups_per_item = config.sizes.lookups_per_item;
    auto fleet = sched::BuildStandardFleet(fleet_config);
    auto policy =
        static_backend < sched::kFleetSize
            ? sched::MakeStaticPolicy(static_backend, "static:fpga")
            : sched::MakeQueueDepthPolicy();
    const sched::SchedReport base =
        sched::SimulateFaultTolerantServing(stream, fleet, *policy,
                                            healthy_options)
            .base;
    zero_identity =
        zero_identity &&
        SameBaseReport(base,
                       serial.records[policy_index].report.base);
  }

  bench::JsonReport json("chaos");
  TablePrinter table({"Intensity", "Policy", "Served", "p99 (us)", "Goodput",
                      "Timeout", "Retry", "Hedge", "Wins", "Recovered"});
  for (const auto& record : serial.records) {
    const sched::SchedReport& r = record.report.base;
    const double goodput = 1.0 - r.slo.bad_fraction;
    const std::string recovered =
        record.recovery.windows.empty()
            ? "-"
            : (record.recovery.all_recovered ? "yes" : "NO");
    table.AddRow({TablePrinter::Num(record.intensity, 2), record.policy,
                  TablePrinter::Num(100.0 * r.availability, 2) + "%",
                  TablePrinter::Num(r.serving.p99 / 1000.0, 2),
                  TablePrinter::Num(100.0 * goodput, 2) + "%",
                  std::to_string(record.report.timed_out),
                  std::to_string(record.report.retries),
                  std::to_string(record.report.hedges),
                  std::to_string(record.report.hedge_wins), recovered});
    json.AddRecord(
        {{"intensity", record.intensity},
         {"policy", record.policy},
         {"availability", r.availability},
         {"p99_ns", r.serving.p99},
         {"goodput", goodput},
         {"timed_out", record.report.timed_out},
         {"retries", record.report.retries},
         {"hedges", record.report.hedges},
         {"hedge_wins", record.report.hedge_wins},
         {"recovered", record.recovery.windows.empty() ||
                           record.recovery.all_recovered},
         {"worst_time_to_recover_ns",
          record.recovery.worst_time_to_recover_ns}});
  }
  table.Print();

  std::printf("\nheadline per intensity: breaker-retry-hedge vs best "
              "availability-keeping static\n");
  for (const auto& h : serial.headlines) {
    std::printf(
        "  %5.2f  ft %9.2f us / %6.2f%%  vs  %-18s %9.2f us / %6.2f%%  "
        "recovery ft=%s static-stuck=%s  -> %s\n",
        h.intensity, h.ft_p99 / 1000.0, 100.0 * h.ft_goodput,
        h.best_static.c_str(), h.best_static_p99 / 1000.0,
        100.0 * h.best_static_goodput, h.ft_recovered ? "yes" : "NO",
        h.some_static_never_recovered ? "yes" : "no",
        h.win ? "WIN" : "LOSS");
    json.AddRecord({{"intensity", h.intensity},
                    {"policy", "headline"},
                    {"best_static", h.best_static},
                    {"best_static_p99_ns", h.best_static_p99},
                    {"best_static_goodput", h.best_static_goodput},
                    {"ft_p99_ns", h.ft_p99},
                    {"ft_goodput", h.ft_goodput},
                    {"win", h.win}});
  }

  json.Meta("queries", config.queries);
  json.Meta("qps", config.qps);
  json.Meta("sla_us", config.sla_ns / 1000.0);
  json.Meta("intensity_max", config.intensity_max);
  json.Meta("headline_win", serial.headline_win);
  json.Meta("threads_identical", threads_identical);
  json.Meta("zero_intensity_identity", zero_identity);
  json.Meta("recorder_consistent", recorder_consistent);
  json.WriteFile();

  bench::PrintNote(
      "at full intensity the fpga path crashes mid-run, the cpu path browns "
      "out 4x (its batch backlog never drains: the static:cpu point never "
      "recovers), and the cache path stalls; breaker+retry routes around "
      "each window as its breaker opens and hedges shave the stragglers, "
      "keeping goodput high while every static path loses its window");
  if (!threads_identical) {
    std::printf("FAIL: threaded+recorded chaos sweep differs from serial "
                "unrecorded sweep\n");
    return 1;
  }
  if (!recorder_consistent) {
    std::printf("FAIL: flight-recorder event log does not reconcile with "
                "the blessed point's scheduler counters\n");
    return 1;
  }
  if (!zero_identity) {
    std::printf("FAIL: zero-intensity grid points differ from the healthy "
                "unwrapped fleet\n");
    return 1;
  }
  if (!serial.headline_win) {
    std::printf("FAIL: fault-tolerant scheduling lost the chaos headline "
                "(p99 + goodput vs every static, with recovery)\n");
    return 1;
  }
  return 0;
}
