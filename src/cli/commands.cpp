#include "cli/commands.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>

#include "cli/sweep_args.hpp"
#include "common/table_printer.hpp"
#include "core/microrec.hpp"
#include "cpu/cpu_engine.hpp"
#include "core/serialization.hpp"
#include "core/system_sim.hpp"
#include "exec/parallel.hpp"
#include "obs/attribution.hpp"
#include "obs/event_log.hpp"
#include "obs/explain.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/perfgate.hpp"
#include "obs/prof/report.hpp"
#include "obs/slo.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"
#include "placement/heuristic.hpp"
#include "sched/backends.hpp"
#include "sched/chaos.hpp"
#include "sched/fault_sweep.hpp"
#include "sched/fleet.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/sweep.hpp"
#include "serving/scaleout.hpp"
#include "serving/serving_sim.hpp"
#include "update/serving_update_sim.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace.hpp"

namespace microrec::cli {

namespace {

Status WriteFileOrStream(const ArgList& args, const std::string& content,
                         std::ostream& out) {
  const auto path = args.GetOption("out");
  if (!path.has_value()) {
    out << content;
    return Status::Ok();
  }
  std::ofstream file(*path);
  if (!file) {
    return Status::InvalidArgument("cannot open --out file " + *path);
  }
  file << content;
  out << "wrote " << content.size() << " bytes to " << *path << "\n";
  return Status::Ok();
}

// The sweep commands' shared --json tail: when the flag is given, `emit`
// writes the report into the file and the path is announced on `out`.
Status WriteJsonReport(const ArgList& args,
                       const std::function<void(std::ostream&)>& emit,
                       std::ostream& out) {
  const auto path = args.GetOption("json");
  if (!path.has_value()) return Status::Ok();
  std::ofstream file(*path);
  if (!file) {
    return Status::InvalidArgument("cannot open --json file " + *path);
  }
  emit(file);
  out << "wrote JSON report to " << *path << "\n";
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

StatusOr<RecModelSpec> LoadModelArg(const ArgList& args) {
  if (args.positional().size() != 1) {
    return Status::InvalidArgument("expected exactly one <model-file>");
  }
  auto text = ReadFile(args.positional()[0]);
  if (!text.ok()) return text.status();
  return ParseModel(*text);
}

PlacementOptions OptionsFor(const RecModelSpec& model, const ArgList& args) {
  PlacementOptions options;
  options.max_onchip_tables = model.max_onchip_tables;
  options.lookups_per_table = model.lookups_per_table;
  options.allow_cartesian = !args.HasFlag("no-cartesian");
  options.allow_onchip = !args.HasFlag("no-onchip");
  return options;
}

}  // namespace

Status CmdModelGen(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(
      args.CheckAllowed({"out", "tables", "veclen"}));
  if (args.positional().size() != 1) {
    return Status::InvalidArgument(
        "modelgen expects one positional argument: small | large | dlrm");
  }
  const std::string& kind = args.positional()[0];
  RecModelSpec model;
  if (kind == "small") {
    model = SmallProductionModel();
  } else if (kind == "large") {
    model = LargeProductionModel();
  } else if (kind == "dlrm") {
    auto tables = args.GetUint("tables", 8);
    auto veclen = args.GetUint("veclen", 32);
    if (!tables.ok()) return tables.status();
    if (!veclen.ok()) return veclen.status();
    for (const auto& [flag, value] :
         {std::pair{"--tables", *tables}, std::pair{"--veclen", *veclen}}) {
      if (value == 0 || value > std::numeric_limits<std::uint32_t>::max()) {
        return Status::InvalidArgument(std::string(flag) +
                                       " must be in [1, 4294967295]");
      }
    }
    model = DlrmRmc2Model(static_cast<std::uint32_t>(*tables),
                          static_cast<std::uint32_t>(*veclen));
  } else {
    return Status::InvalidArgument("unknown model kind '" + kind + "'");
  }
  MICROREC_RETURN_IF_ERROR(model.Validate());
  return WriteFileOrStream(args, SerializeModel(model), out);
}

Status CmdInspect(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed({}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  out << "model " << model->name << ": " << model->tables.size()
      << " tables, feature length " << model->FeatureLength()
      << ", embeddings " << FormatBytes(model->TotalEmbeddingBytes()) << "\n";
  out << "mlp: " << model->mlp.input_dim;
  for (auto h : model->mlp.hidden) out << " -> " << h;
  out << " -> 1 (" << model->mlp.OpsPerItem() << " ops/item)\n";

  std::uint64_t min_rows = ~0ull, max_rows = 0;
  std::uint32_t min_dim = ~0u, max_dim = 0;
  for (const auto& t : model->tables) {
    min_rows = std::min(min_rows, t.rows);
    max_rows = std::max(max_rows, t.rows);
    min_dim = std::min(min_dim, t.dim);
    max_dim = std::max(max_dim, t.dim);
  }
  out << "tables: rows " << min_rows << ".." << max_rows << ", dims "
      << min_dim << ".." << max_dim << ", " << model->lookups_per_table
      << " lookup(s) per table, on-chip budget " << model->max_onchip_tables
      << "\n";
  return Status::Ok();
}

Status CmdPlan(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(
      args.CheckAllowed({"out", "no-cartesian", "no-onchip"}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  const auto platform = MemoryPlatformSpec::AlveoU280();
  auto plan =
      HeuristicSearch(model->tables, platform, OptionsFor(*model, args));
  if (!plan.ok()) return plan.status();

  out << "placement for " << model->name << " on " << platform.ToString()
      << ":\n";
  out << "  " << plan->tables_total << " tables ("
      << plan->cartesian_products << " products), " << plan->tables_in_dram
      << " in DRAM, " << plan->tables_onchip << " on-chip\n";
  out << "  lookup latency " << FormatNanos(plan->lookup_latency_ns) << ", "
      << plan->dram_access_rounds << " DRAM round(s), storage overhead "
      << FormatBytes(plan->storage_overhead_bytes) << "\n";
  return WriteFileOrStream(args, SerializePlan(*plan), out);
}

Status CmdRecord(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(
      args.CheckAllowed({"out", "queries", "qps", "seed", "zipf"}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  auto queries = args.GetUint("queries", 1000);
  if (!queries.ok()) return queries.status();
  if (*queries == 0) return Status::InvalidArgument("--queries must be >= 1");
  auto qps = args.GetUint("qps", 100'000);
  if (!qps.ok()) return qps.status();
  if (*qps == 0) return Status::InvalidArgument("--qps must be >= 1");
  auto seed = args.GetUint("seed", 42);
  if (!seed.ok()) return seed.status();

  auto theta = args.GetDouble("zipf", 0.0);
  if (!theta.ok()) return theta.status();
  if (*theta < 0.0) return Status::InvalidArgument("--zipf must be >= 0");
  const IndexDistribution distribution = args.GetOption("zipf")
                                             ? IndexDistribution::kZipf
                                             : IndexDistribution::kUniform;

  QueryGenerator generator(*model, distribution, *seed, *theta);
  const auto arrivals =
      PoissonArrivals(static_cast<double>(*qps), *queries, *seed + 1);
  const auto trace = RecordTrace(generator, arrivals);
  return WriteFileOrStream(args, SerializeTrace(trace), out);
}

Status CmdSimulate(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"plan", "trace", "precision", "items", "no-cartesian", "no-onchip"}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  auto precision = args.GetUint("precision", 16);
  if (!precision.ok()) return precision.status();
  if (*precision != 16 && *precision != 32) {
    return Status::InvalidArgument("--precision must be 16 or 32");
  }
  auto items = args.GetUint("items", 2000);
  if (!items.ok()) return items.status();
  if (*items == 0) return Status::InvalidArgument("--items must be >= 1");

  EngineOptions options;
  options.precision =
      *precision == 16 ? Precision::kFixed16 : Precision::kFixed32;
  options.materialize = false;
  options.enable_cartesian = !args.HasFlag("no-cartesian");
  options.enable_onchip = !args.HasFlag("no-onchip");
  auto engine = MicroRecEngine::Build(*model, options);
  if (!engine.ok()) return engine.status();

  // Optional externally-supplied plan overrides the engine's own for the
  // lookup-latency report.
  if (const auto plan_path = args.GetOption("plan")) {
    auto text = ReadFile(*plan_path);
    if (!text.ok()) return text.status();
    auto plan = ParsePlan(*text, *model);
    if (!plan.ok()) return plan.status();
    MICROREC_RETURN_IF_ERROR(ValidatePlan(*plan, options.platform));
    PlacementOptions popts;
    popts.lookups_per_table = model->lookups_per_table;
    plan->FinalizeMetrics(options.platform, popts,
                          model->TotalEmbeddingBytes());
    out << "external plan: lookup latency "
        << FormatNanos(plan->lookup_latency_ns) << ", "
        << plan->dram_access_rounds << " round(s)\n";
  }

  out << "analytic: item latency " << FormatNanos(engine->ItemLatency())
      << ", throughput " << engine->Throughput() << " items/s, "
      << engine->Gops() << " GOP/s, lookup "
      << FormatNanos(engine->EmbeddingLookupLatency()) << "\n";

  SystemSimulator sim(*engine);
  SystemSimReport report;
  if (const auto trace_path = args.GetOption("trace")) {
    auto text = ReadFile(*trace_path);
    if (!text.ok()) return text.status();
    auto trace = ParseTrace(*text, *model);
    if (!trace.ok()) return trace.status();
    if (trace->empty()) return Status::InvalidArgument("trace is empty");
    std::vector<Nanoseconds> arrivals;
    arrivals.reserve(trace->size());
    for (const auto& timed : *trace) arrivals.push_back(timed.arrival_ns);
    report = sim.RunArrivals(arrivals);
    out << "replayed trace of " << trace->size() << " queries\n";
  } else {
    report = sim.Run(*items);
  }
  out << "simulated " << report.items << " items: throughput "
      << report.throughput_items_per_s << " items/s, item p99 "
      << FormatNanos(report.item_latency_p99) << ", lookup max "
      << FormatNanos(report.lookup_latency_max) << ", peak bank util "
      << 100.0 * report.peak_bank_utilization << "%\n";
  return Status::Ok();
}

namespace {

Status WriteNamedFile(const std::string& path, const std::string& content,
                      std::ostream& out) {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open output file " + path);
  }
  file << content;
  out << "wrote " << content.size() << " bytes to " << path << "\n";
  return Status::Ok();
}

}  // namespace

Status CmdTrace(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"queries", "qps", "seed", "sample", "trace-out", "metrics-out",
       "prom-out", "timeline", "timeline-out", "slo", "sla-us"}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  auto queries = args.GetUint("queries", 2000);
  if (!queries.ok()) return queries.status();
  if (*queries == 0) return Status::InvalidArgument("--queries must be >= 1");
  auto qps = args.GetUint("qps", 150'000);
  if (!qps.ok()) return qps.status();
  if (*qps == 0) return Status::InvalidArgument("--qps must be >= 1");
  auto seed = args.GetUint("seed", 42);
  if (!seed.ok()) return seed.status();
  auto sample = args.GetUint("sample", 1);
  if (!sample.ok()) return sample.status();
  if (*sample == 0) return Status::InvalidArgument("--sample must be >= 1");
  auto sla_us = args.GetUint("sla-us", 100);
  if (!sla_us.ok()) return sla_us.status();
  if (*sla_us == 0) return Status::InvalidArgument("--sla-us must be >= 1");

  EngineOptions options;
  options.materialize = false;
  auto engine = MicroRecEngine::Build(*model, options);
  if (!engine.ok()) return engine.status();

  obs::MetricsRegistry registry;
  obs::TracerOptions tracer_opts;
  tracer_opts.sample_every = static_cast<std::uint32_t>(*sample);
  tracer_opts.process_name = "microrec " + model->name;
  obs::SpanTracer tracer(tracer_opts);

  const auto arrivals =
      PoissonArrivals(static_cast<double>(*qps), *queries, *seed);

  // The timeline recorder's ring must cover the whole run: size the bucket
  // from the arrival span (doubled, so completions draining past the last
  // arrival still land inside the window even under heavy queueing).
  std::unique_ptr<obs::TimeSeriesRecorder> timeline;
  if (args.HasFlag("timeline")) {
    obs::TimeSeriesOptions topts;
    topts.num_buckets = 512;
    topts.bucket_ns = std::max(
        1.0, 2.0 * arrivals.back() / static_cast<double>(topts.num_buckets));
    timeline = std::make_unique<obs::TimeSeriesRecorder>(topts);
  }

  SystemSimulator sim(*engine);
  sim.set_telemetry(obs::Telemetry{&registry, &tracer, timeline.get()});
  const SystemSimReport report = sim.RunArrivals(arrivals);

  out << "traced " << report.items << " queries (1-in-" << *sample
      << " sampled into " << tracer.num_events() << " trace events)\n";
  out << "throughput " << report.throughput_items_per_s
      << " items/s, item p50 " << FormatNanos(report.item_latency_p50)
      << ", p99 " << FormatNanos(report.item_latency_p99) << "\n\n";

  // Where did the p99 go: per-stage decomposition of the p99-ranked item.
  // The p99-share column sums exactly to that item's end-to-end latency.
  out << "p99 latency attribution (p99 item: "
      << FormatNanos(report.p99_item_latency_ns) << ")\n";
  TablePrinter table({"stage", "mean (ns)", "p99 share (ns)", "busy (ns)",
                      "starved (ns)", "blocked (ns)", "occupancy"});
  double mean_sum = 0.0;
  double p99_sum = 0.0;
  for (const StageAttribution& attr : report.attribution) {
    mean_sum += attr.mean_ns;
    p99_sum += attr.p99_item_ns;
    table.AddRow({attr.name, TablePrinter::Num(attr.mean_ns, 1),
                  TablePrinter::Num(attr.p99_item_ns, 1),
                  TablePrinter::Num(attr.busy_ns, 0),
                  TablePrinter::Num(attr.starved_ns, 0),
                  TablePrinter::Num(attr.blocked_ns, 0),
                  TablePrinter::Num(100.0 * attr.occupancy, 1) + "%"});
  }
  table.AddRow({"TOTAL", TablePrinter::Num(mean_sum, 1),
                TablePrinter::Num(p99_sum, 1), "", "", "", ""});
  out << table.ToString();

  // Critical-path drilldown over the sampled spans: the same p99 query as
  // above, decomposed into queue / bank-queue / bank-service / stall slices
  // whose sum reproduces its end-to-end latency.
  out << "\n" << obs::ComputeCriticalPathAttribution(tracer).ToString();

  if (args.HasFlag("slo")) {
    std::vector<obs::QueryOutcome> outcomes;
    for (const obs::SpanTracer::AsyncView& span : tracer.AsyncSpans()) {
      outcomes.push_back(
          obs::QueryOutcome{span.start_ns, span.end_ns - span.start_ns, true});
    }
    const auto spec = obs::SloSpec::Default(
        static_cast<double>(*sla_us) * 1000.0, 0.999,
        std::max(arrivals.back(), 1.0));
    out << "\n" << obs::EvaluateSlo(spec, outcomes).ToString() << "\n";
  }

  const std::string trace_path =
      args.GetOption("trace-out").value_or("trace.json");
  const std::string metrics_path =
      args.GetOption("metrics-out").value_or("metrics.json");
  const std::string prom_path =
      args.GetOption("prom-out").value_or("metrics.prom");
  MICROREC_RETURN_IF_ERROR(
      WriteNamedFile(trace_path, tracer.ToChromeJson(), out));
  MICROREC_RETURN_IF_ERROR(
      WriteNamedFile(metrics_path, registry.ToJson(), out));
  MICROREC_RETURN_IF_ERROR(
      WriteNamedFile(prom_path, registry.ToPrometheus(), out));
  if (timeline != nullptr) {
    const std::string timeline_path =
        args.GetOption("timeline-out").value_or("timeline.json");
    MICROREC_RETURN_IF_ERROR(
        WriteNamedFile(timeline_path, timeline->ToJson(), out));
  }
  return Status::Ok();
}

Status CmdUpdateSweep(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"queries", "qps", "seed", "points", "update-qps-max", "policy",
       "json", "threads"}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  SweepArgsSpec sweep_spec;
  auto sweep = SweepArgs::Parse(args, sweep_spec);
  if (!sweep.ok()) return sweep.status();
  auto points = args.GetUint("points", 5);
  if (!points.ok()) return points.status();
  if (*points < 2) return Status::InvalidArgument("--points must be >= 2");
  auto update_max = args.GetUint("update-qps-max", 5'000'000);
  if (!update_max.ok()) return update_max.status();
  if (*update_max == 0) {
    return Status::InvalidArgument("--update-qps-max must be >= 1");
  }
  WritePolicy policy = WritePolicy::kFairInterleave;
  if (const auto name = args.GetOption("policy")) {
    if (*name == "fair") {
      policy = WritePolicy::kFairInterleave;
    } else if (*name == "yield") {
      policy = WritePolicy::kUpdatesYield;
    } else {
      return Status::InvalidArgument("--policy must be fair or yield");
    }
  }

  EngineOptions options;
  options.materialize = false;
  auto engine = MicroRecEngine::Build(*model, options);
  if (!engine.ok()) return engine.status();
  const auto arrivals = PoissonArrivals(static_cast<double>(sweep->qps),
                                        sweep->queries, sweep->seed);

  // Point k sweeps geometrically from update-qps-max / 2^(points-2) up to
  // update-qps-max, with an exact 0 first (the no-update baseline).
  std::vector<double> rates(*points, 0.0);
  for (std::uint64_t k = 1; k < *points; ++k) {
    double rate = static_cast<double>(*update_max);
    for (std::uint64_t i = k + 1; i < *points; ++i) rate /= 2.0;
    rates[k] = rate;
  }

  // The points share only read-only state (model, plan, arrivals); every
  // simulation constructs its own memory system and delta stream, so they
  // map cleanly onto the parallel runner. Reports come back in point order
  // and all printing happens below, serially -- stdout and the JSON file
  // are byte-identical at any --threads value.
  exec::ParallelRunner runner(exec::ExecConfig::WithThreads(sweep->threads));
  const std::vector<UpdateServingReport> reports =
      runner.Map(rates.size(), [&](std::size_t k) {
        UpdateServingConfig config;
        config.item_latency_ns = engine->timing().item_latency_ns;
        config.initiation_interval_ns =
            engine->timing().initiation_interval_ns;
        config.deltas.update_row_qps = rates[k];
        config.deltas.seed = sweep->seed + 1;
        config.policy = policy;
        return SimulateServingWithUpdates(*model, engine->plan(),
                                          options.platform, arrivals, config);
      });

  out << "update sweep for " << model->name << ": " << sweep->queries
      << " queries at " << sweep->qps << " QPS, policy "
      << WritePolicyName(policy) << "\n";
  out << "update_qps  p50_us  p99_us  stale_p50_us  stale_p99_us  "
         "interfered  migrations\n";

  std::ostringstream json;
  json << "{\n  \"command\": \"update-sweep\",\n  \"model\": \""
       << obs::EscapeJson(model->name) << "\",\n  \"qps\": " << sweep->qps
       << ",\n  \"policy\": \"" << WritePolicyName(policy)
       << "\",\n  \"records\": [\n";
  for (std::uint64_t k = 0; k < *points; ++k) {
    const UpdateServingReport& report = reports[k];
    char line[160];
    std::snprintf(line, sizeof line,
                  "%10.0f  %6.2f  %6.2f  %12.2f  %12.2f  %10llu  %10llu\n",
                  rates[k], report.serving.p50 / 1000.0,
                  report.serving.p99 / 1000.0, report.staleness_p50 / 1000.0,
                  report.staleness_p99 / 1000.0,
                  (unsigned long long)report.delayed_queries,
                  (unsigned long long)report.migrations);
    out << line;
    json << "    {\"update_qps\": " << rates[k]
         << ", \"p99_ns\": " << report.serving.p99
         << ", \"staleness_p99_ns\": " << report.staleness_p99
         << ", \"publishes\": " << report.publishes << "}"
         << (k + 1 < *points ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return WriteJsonReport(
      args, [&](std::ostream& file) { file << json.str(); }, out);
}

Status CmdFaultSweep(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"queries", "qps", "seed", "max-failed", "fault-max-failed", "json",
       "threads"}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  SweepArgsSpec sweep_spec;
  sweep_spec.default_queries = 20'000;
  auto sweep = SweepArgs::Parse(args, sweep_spec);
  if (!sweep.ok()) return sweep.status();
  FaultArgsSpec fault_spec;
  fault_spec.wants_max_failed = true;
  auto fault = FaultArgs::Parse(args, fault_spec);
  if (!fault.ok()) return fault.status();
  const std::uint64_t max_failed = fault->max_failed;

  EngineOptions options;
  options.materialize = false;
  auto engine = MicroRecEngine::Build(*model, options);
  if (!engine.ok()) return engine.status();
  const auto arrivals = PoissonArrivals(static_cast<double>(sweep->qps),
                                        sweep->queries, sweep->seed);
  const auto points =
      sched::RunFaultSweep(*engine, arrivals, max_failed, sweep->threads);
  if (!points.ok()) return points.status();

  out << "fault sweep for " << model->name << ": " << sweep->queries
      << " queries at " << sweep->qps << " QPS, failing up to " << max_failed
      << " HBM channel(s)\n";
  out << "replicas  failed_ch  availability  shed%    p50_us    p99_us  "
         "alert_ms   budget%\n";

  std::ostringstream json;
  json << "{\n  \"command\": \"fault-sweep\",\n  \"model\": \""
       << obs::EscapeJson(model->name) << "\",\n  \"qps\": " << sweep->qps
       << ",\n  \"records\": [\n";
  bool first_record = true;
  for (const sched::FaultSweepPoint& point : *points) {
    const obs::SloReport& slo = point.slo;
    const double shed_rate = 1.0 - point.availability;
    char alert[24];
    if (slo.alerted) {
      std::snprintf(alert, sizeof alert, "%8.3f", slo.time_to_alert_ns / 1e6);
    } else {
      std::snprintf(alert, sizeof alert, "%8s", "-");
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "%8u  %9llu  %11.2f%%  %5.2f%%  %8.2f  %8.2f  %s  %7.1f%%\n",
                  point.replication,
                  (unsigned long long)point.failed_channels,
                  100.0 * point.availability, 100.0 * shed_rate,
                  point.serving.p50 / 1000.0, point.serving.p99 / 1000.0,
                  alert, 100.0 * slo.error_budget_remaining);
    out << line;
    json << (first_record ? "" : ",\n") << "    {\"replication\": "
         << point.replication
         << ", \"failed_channels\": " << point.failed_channels
         << ", \"availability\": " << point.availability
         << ", \"shed_rate\": " << shed_rate
         << ", \"p50_ns\": " << point.serving.p50
         << ", \"p99_ns\": " << point.serving.p99
         << ", \"slo_alerted\": " << (slo.alerted ? "true" : "false")
         << ", \"time_to_alert_ns\": " << slo.time_to_alert_ns
         << ", \"error_budget_remaining\": " << slo.error_budget_remaining
         << "}";
    first_record = false;
  }
  json << "\n  ]\n}\n";
  return WriteJsonReport(
      args, [&](std::ostream& file) { file << json.str(); }, out);
}

Status CmdScaleout(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"queries", "seed", "points", "qps-min", "qps-max", "sla-us",
       "json", "threads"}));
  auto model = LoadModelArg(args);
  if (!model.ok()) return model.status();

  SweepArgsSpec sweep_spec;
  sweep_spec.default_queries = 20'000;
  sweep_spec.wants_qps = false;  // scaleout sweeps --qps-min/--qps-max
  auto sweep = SweepArgs::Parse(args, sweep_spec);
  if (!sweep.ok()) return sweep.status();
  auto points = args.GetUint("points", 4);
  if (!points.ok()) return points.status();
  if (*points == 0) return Status::InvalidArgument("--points must be >= 1");
  auto qps_min = args.GetUint("qps-min", 500'000);
  if (!qps_min.ok()) return qps_min.status();
  auto qps_max = args.GetUint("qps-max", 4'000'000);
  if (!qps_max.ok()) return qps_max.status();
  if (*qps_min == 0 || *qps_max < *qps_min) {
    return Status::InvalidArgument("need 1 <= --qps-min <= --qps-max");
  }
  auto sla_us = args.GetUint("sla-us", 100);
  if (!sla_us.ok()) return sla_us.status();
  if (*sla_us == 0) return Status::InvalidArgument("--sla-us must be >= 1");

  EngineOptions options;
  options.materialize = false;
  auto engine = MicroRecEngine::Build(*model, options);
  if (!engine.ok()) return engine.status();
  // Same card economics as bench_scaleout_serving: one engine's throughput
  // per card at the cost appendix's FPGA hourly rate.
  const DeviceClass fpga{engine->Throughput(), 1.65};

  // Geometric traffic sweep, provisioned serially (ProvisionFleet is
  // arithmetic); each provisioned fleet is then simulated at its target
  // load and one card short of it, in parallel over the flattened grid.
  struct ScaleoutPoint {
    std::size_t qps_index = 0;
    double target_qps = 0.0;
    std::uint64_t devices = 0;  ///< fleet size this point simulates
    FleetPlan plan;
    bool underprovisioned = false;
  };
  std::vector<ScaleoutPoint> grid;
  for (std::uint64_t k = 0; k < *points; ++k) {
    const double ratio = *points == 1
                             ? 1.0
                             : static_cast<double>(k) /
                                   static_cast<double>(*points - 1);
    const double target_qps =
        static_cast<double>(*qps_min) *
        std::pow(static_cast<double>(*qps_max) /
                     static_cast<double>(*qps_min),
                 ratio);
    auto plan = ProvisionFleet(target_qps, fpga);
    if (!plan.ok()) return plan.status();
    grid.push_back(ScaleoutPoint{k, target_qps, plan->devices, *plan, false});
    if (plan->devices > 1) {
      grid.push_back(
          ScaleoutPoint{k, target_qps, plan->devices - 1, *plan, true});
    }
  }

  const Nanoseconds sla_ns = static_cast<double>(*sla_us) * 1000.0;
  exec::ParallelRunner runner(exec::ExecConfig::WithThreads(sweep->threads));
  const std::vector<ServingReport> results =
      runner.Map(grid.size(), [&](std::size_t p) {
        const ScaleoutPoint& point = grid[p];
        // Both fleet sizes at one traffic level replay the same arrival
        // stream: the seed hangs off the qps index, not the grid index.
        const auto arrivals = PoissonArrivals(
            point.target_qps, sweep->queries,
            exec::ParallelRunner::SubSeed(sweep->seed, point.qps_index));
        // The fleet is one pipeline pool with a replica per card, but at
        // most one per query: least-loaded dispatch sends each query to an
        // unused replica while one exists, so cards past the query count
        // change no completion time (and a plan past 2^32 cards would
        // otherwise wrap the replica count).
        sched::PipelineBackendConfig pool;
        pool.replicas = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            {point.devices, sweep->queries,
             std::numeric_limits<std::uint32_t>::max()}));
        pool.item_latency_ns = engine->ItemLatency();
        pool.initiation_interval_ns = engine->timing().initiation_interval_ns;
        return sched::ServeOnBackend(
                   arrivals, std::make_unique<sched::PipelineBackend>(pool),
                   sla_ns)
            .serving;
      });

  out << "scale-out sweep for " << model->name << ": " << sweep->queries
      << " queries per point, SLA " << *sla_us << " us, "
      << fpga.throughput_items_per_s << " items/s per card\n";
  out << "target_qps     cards  fleet         $/h     util%   p50_us  "
         "p99_us  sla_viol%\n";

  std::ostringstream json;
  json << "{\n  \"command\": \"scaleout\",\n  \"model\": \""
       << obs::EscapeJson(model->name) << "\",\n  \"sla_us\": " << *sla_us
       << ",\n  \"records\": [\n";
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const ScaleoutPoint& point = grid[p];
    const ServingReport& report = results[p];
    char line[200];
    std::snprintf(line, sizeof line,
                  "%10.0f  %6llu  %-11s  %6.2f  %6.1f%%  %7.2f  %7.2f  "
                  "%8.2f%%\n",
                  point.target_qps, (unsigned long long)point.devices,
                  point.underprovisioned ? "minus-one" : "provisioned",
                  point.plan.dollars_per_hour, 100.0 * point.plan.utilization,
                  report.p50 / 1000.0, report.p99 / 1000.0,
                  100.0 * report.sla_violation_rate);
    out << line;
    json << "    {\"target_qps\": " << point.target_qps
         << ", \"devices\": " << point.devices
         << ", \"underprovisioned\": "
         << (point.underprovisioned ? "true" : "false")
         << ", \"dollars_per_hour\": " << point.plan.dollars_per_hour
         << ", \"p50_ns\": " << report.p50
         << ", \"p99_ns\": " << report.p99
         << ", \"sla_violation_rate\": " << report.sla_violation_rate << "}"
         << (p + 1 < grid.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return WriteJsonReport(
      args, [&](std::ostream& file) { file << json.str(); }, out);
}

namespace {

// The recorded point's scheduler counters as a metrics snapshot (with
// HELP text), embedded into the postmortem so a responder sees the run's
// totals next to the event window.
obs::MetricsSnapshot FtReportMetrics(const sched::FtSchedReport& report) {
  obs::MetricsRegistry registry;
  const struct {
    const char* name;
    const char* help;
    std::uint64_t value;
  } counters[] = {
      {"microrec_sched_offered", "queries offered to the scheduler",
       report.base.offered},
      {"microrec_sched_served", "queries served before the horizon",
       report.base.served},
      {"microrec_sched_shed", "queries never served (sheds + timeouts)",
       report.base.shed},
      {"microrec_sched_timed_out",
       "admitted queries that missed their deadline", report.timed_out},
      {"microrec_sched_retries", "successful re-admissions after a timeout",
       report.retries},
      {"microrec_sched_hedges", "hedge admissions dispatched", report.hedges},
      {"microrec_sched_hedge_wins", "queries whose hedge finished first",
       report.hedge_wins},
      {"microrec_sched_cancelled_completions",
       "completions that arrived for already-resolved queries",
       report.cancelled_completions},
      {"microrec_sched_breaker_opens", "circuit-breaker open transitions",
       report.breaker_opens},
      {"microrec_sched_breaker_sheds",
       "low-priority sheds while every breaker was open",
       report.breaker_sheds},
      {"microrec_sched_forced_admits",
       "high-priority force-admits while every breaker was open",
       report.forced_admits},
  };
  for (const auto& c : counters) {
    registry.counter(c.name).Inc(c.value);
    registry.SetHelp(c.name, c.help);
  }
  registry.gauge("microrec_sched_availability")
      .Set(report.base.availability);
  registry.SetHelp("microrec_sched_availability",
                   "served fraction of offered queries");
  registry.gauge("microrec_sched_p99_ns").Set(report.base.serving.p99);
  registry.SetHelp("microrec_sched_p99_ns",
                   "served-latency p99 in nanoseconds");
  return registry.Snapshot();
}

// Shared tail of `sched-sweep` / `chaos-sweep --record-events/--postmortem`:
// dumps the flight-recorder log and/or the SLO-alert postmortem for the
// recorded point. `span_ns` is the run's expected span -- the budget
// period the postmortem's alert windows derive from, matching the spec the
// scheduler evaluated the SLO against.
Status WriteFlightRecorderOutputs(const ArgList& args,
                                  const obs::EventLog& log,
                                  const sched::FtSchedReport& report,
                                  Nanoseconds sla_ns, double slo_objective,
                                  Nanoseconds span_ns, std::ostream& out) {
  if (const auto path = args.GetOption("record-events")) {
    std::ofstream file(*path);
    if (!file) {
      return Status::InvalidArgument("cannot open --record-events file " +
                                     *path);
    }
    file << log.ToJson();
    out << "wrote " << log.size() << " recorded event(s) to " << *path
        << "\n";
  }
  if (const auto path = args.GetOption("postmortem")) {
    const obs::SloSpec spec = obs::SloSpec::Default(
        sla_ns, slo_objective, span_ns > 0.0 ? span_ns : 1.0);
    obs::PostmortemTrigger trigger(log);
    obs::PostmortemReport postmortem =
        trigger.Trigger(spec, report.base.slo);
    postmortem.metrics = FtReportMetrics(report);
    std::ofstream file(*path);
    if (!file) {
      return Status::InvalidArgument("cannot open --postmortem file " +
                                     *path);
    }
    file << postmortem.ToJson();
    out << "wrote postmortem (" << postmortem.alerts.size()
        << " fired burn-rate rule(s)) to " << *path << "\n";
  }
  return Status::Ok();
}

}  // namespace

Status CmdSchedSweep(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"queries", "qps", "seed", "sla-us", "json", "threads",
       "record-events", "postmortem"}));
  if (!args.positional().empty()) {
    return Status::InvalidArgument(
        "sched-sweep takes no positional arguments");
  }
  SweepArgsSpec sweep_spec;
  sweep_spec.default_queries = 40'000;
  sweep_spec.default_qps = 700'000;
  auto sweep = SweepArgs::Parse(args, sweep_spec);
  if (!sweep.ok()) return sweep.status();
  auto sla_us = args.GetUint("sla-us", 2'000);
  if (!sla_us.ok()) return sla_us.status();
  if (*sla_us == 0) return Status::InvalidArgument("--sla-us must be >= 1");

  sched::SweepGridConfig config;
  config.queries = sweep->queries;
  config.qps = static_cast<double>(sweep->qps);
  config.seed = sweep->seed;
  config.sla_ns = static_cast<double>(*sla_us) * 1000.0;
  config.threads = sweep->threads;

  const sched::SchedSweepResult result = sched::RunSchedSweep(config);

  out << "scheduler sweep: " << sweep->queries << " queries at "
      << sweep->qps << " QPS base rate, SLA " << *sla_us
      << " us, 4 arrival processes x 7 policies\n";
  out << "process      policy            served%    p50_us    p99_us  "
         "slo_bad%   fpga%    cpu%  cache%   degr%\n";
  for (const sched::SweepRecord& record : result.records) {
    const sched::SchedReport& r = record.report;
    const double offered = static_cast<double>(r.offered);
    char line[220];
    std::snprintf(
        line, sizeof line,
        "%-11s  %-16s  %6.2f%%  %8.2f  %8.2f  %7.3f%%  %5.1f%%  %5.1f%%  "
        "%5.1f%%  %5.1f%%\n",
        record.process.c_str(), record.policy.c_str(),
        100.0 * r.availability, r.serving.p50 / 1000.0,
        r.serving.p99 / 1000.0, 100.0 * r.slo.bad_fraction,
        100.0 * static_cast<double>(r.usage[sched::kFleetFpga].queries) /
            offered,
        100.0 * static_cast<double>(r.usage[sched::kFleetCpu].queries) /
            offered,
        100.0 * static_cast<double>(r.usage[sched::kFleetHotCache].queries) /
            offered,
        100.0 * static_cast<double>(r.usage[sched::kFleetDegraded].queries) /
            offered);
    out << line;
  }

  out << "\nheadline: p99 under bursty load, slo-aware vs best "
         "availability-keeping static policy\n";
  for (const sched::SweepHeadline& h : result.headlines) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "%-11s  slo-aware %9.2f us  vs  %-16s %10.2f us  -> %s\n",
                  h.process.c_str(), h.slo_aware_p99 / 1000.0,
                  h.best_static.c_str(), h.best_static_p99 / 1000.0,
                  h.slo_beats_best_static ? "WIN" : "LOSS");
    out << line;
  }
  out << "HEADLINE: slo-aware beats every static single-path policy on p99 "
         "under bursty load: "
      << (result.slo_beats_best_static_any ? "YES" : "NO") << "\n";

  const auto write_json = [&](std::ostream& file) {
    obs::JsonWriter json(file);
    json.BeginObject();
    json.KV("command", "sched-sweep");
    json.KV("queries", sweep->queries);
    json.KV("qps", sweep->qps);
    json.KV("seed", sweep->seed);
    json.KV("sla_us", *sla_us);
    json.Key("records");
    json.BeginArray();
    for (const sched::SweepRecord& record : result.records) {
      const sched::SchedReport& r = record.report;
      json.BeginObject();
      json.KV("process", record.process);
      json.KV("policy", record.policy);
      json.KV("offered", r.offered);
      json.KV("served", r.served);
      json.KV("availability", r.availability);
      json.KV("p50_ns", r.serving.p50);
      json.KV("p99_ns", r.serving.p99);
      json.KV("mean_ns", r.serving.mean);
      json.KV("slo_bad_fraction", r.slo.bad_fraction);
      json.KV("slo_alerted", r.slo.alerted);
      json.Key("backend_queries");
      json.BeginObject();
      for (const sched::BackendUsage& usage : r.usage) {
        json.KV(usage.name, usage.queries);
      }
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.Key("headlines");
    json.BeginArray();
    for (const sched::SweepHeadline& h : result.headlines) {
      json.BeginObject();
      json.KV("process", h.process);
      json.KV("best_static", h.best_static);
      json.KV("best_static_p99_ns", h.best_static_p99);
      json.KV("slo_aware_p99_ns", h.slo_aware_p99);
      json.KV("slo_beats_best_static", h.slo_beats_best_static);
      json.EndObject();
    }
    json.EndArray();
    json.KV("slo_beats_best_static_any", result.slo_beats_best_static_any);
    json.EndObject();
    file << "\n";
  };
  MICROREC_RETURN_IF_ERROR(WriteJsonReport(args, write_json, out));

  if (args.GetOption("record-events").has_value() ||
      args.GetOption("postmortem").has_value()) {
    // Re-run the flash-crowd x slo-aware point -- the grid's headline
    // regime -- with the flight recorder attached; bit-identical to the
    // grid's record for that point (test-gated).
    obs::EventLog log;
    const sched::FtSchedReport recorded = sched::RecordSchedSweepPoint(
        config, /*process_index=*/2, sched::kPolicySloAware, log);
    out << "flight recorder: flash-crowd x slo-aware, " << log.size()
        << " event(s) recorded\n";
    const Nanoseconds span_ns =
        static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
    MICROREC_RETURN_IF_ERROR(WriteFlightRecorderOutputs(
        args, log, recorded, config.sla_ns, config.slo_objective, span_ns,
        out));
  }
  return Status::Ok();
}

Status CmdChaosSweep(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"queries", "qps", "seed", "sla-us", "json", "threads",
       "fault-intensity-max", "fault-points", "fault-seed",
       "record-events", "postmortem"}));
  if (!args.positional().empty()) {
    return Status::InvalidArgument(
        "chaos-sweep takes no positional arguments");
  }
  SweepArgsSpec sweep_spec;
  sweep_spec.default_queries = 30'000;
  sweep_spec.default_qps = 500'000;
  auto sweep = SweepArgs::Parse(args, sweep_spec);
  if (!sweep.ok()) return sweep.status();
  auto sla_us = args.GetUint("sla-us", 2'000);
  if (!sla_us.ok()) return sla_us.status();
  if (*sla_us == 0) return Status::InvalidArgument("--sla-us must be >= 1");
  FaultArgsSpec fault_spec;
  fault_spec.wants_intensity = true;
  auto fault = FaultArgs::Parse(args, fault_spec);
  if (!fault.ok()) return fault.status();

  sched::ChaosSweepConfig config;
  config.queries = sweep->queries;
  config.qps = static_cast<double>(sweep->qps);
  config.seed = sweep->seed;
  config.fault_seed = fault->fault_seed;
  config.sla_ns = static_cast<double>(*sla_us) * 1000.0;
  config.intensity_max = fault->intensity_max;
  config.intensity_points =
      static_cast<std::size_t>(fault->intensity_points);
  config.threads = sweep->threads;
  config.record_events = args.GetOption("record-events").has_value() ||
                         args.GetOption("postmortem").has_value();

  const sched::ChaosSweepResult result = sched::RunChaosSweep(config);

  out << "chaos sweep: " << sweep->queries << " queries at " << sweep->qps
      << " QPS, SLA " << *sla_us << " us, " << config.intensity_points
      << " fault intensities x " << sched::kNumChaosPolicies
      << " policies\n";
  out << "intensity  policy               served%    p99_us  goodput%  "
         "timeout  retry  hedge  wins  recovered\n";
  for (const sched::ChaosRecord& record : result.records) {
    const sched::SchedReport& r = record.report.base;
    const char* recovered = record.recovery.windows.empty()
                                ? "-"
                                : (record.recovery.all_recovered ? "yes"
                                                                 : "NO");
    char line[220];
    std::snprintf(
        line, sizeof line,
        "%9.2f  %-19s  %6.2f%%  %8.2f  %7.2f%%  %7llu  %5llu  %5llu  %4llu"
        "  %s\n",
        record.intensity, record.policy.c_str(), 100.0 * r.availability,
        r.serving.p99 / 1000.0, 100.0 * (1.0 - r.slo.bad_fraction),
        static_cast<unsigned long long>(record.report.timed_out),
        static_cast<unsigned long long>(record.report.retries),
        static_cast<unsigned long long>(record.report.hedges),
        static_cast<unsigned long long>(record.report.hedge_wins),
        recovered);
    out << line;
  }

  out << "\nheadline per intensity: breaker-retry-hedge vs best "
         "availability-keeping static\n";
  for (const sched::ChaosHeadline& h : result.headlines) {
    char line[220];
    std::snprintf(
        line, sizeof line,
        "%9.2f  ft %9.2f us / %6.2f%% goodput  vs  %-16s %9.2f us / "
        "%6.2f%%  recovery ft=%s static-stuck=%s  -> %s\n",
        h.intensity, h.ft_p99 / 1000.0, 100.0 * h.ft_goodput,
        h.best_static.c_str(), h.best_static_p99 / 1000.0,
        100.0 * h.best_static_goodput, h.ft_recovered ? "yes" : "NO",
        h.some_static_never_recovered ? "yes" : "no",
        h.win ? "WIN" : "LOSS");
    out << line;
  }
  out << "HEADLINE: fault-tolerant scheduling beats every static "
         "single-path policy on p99 and goodput at full intensity, and "
         "recovers where a static cannot: "
      << (result.headline_win ? "YES" : "NO") << "\n";

  const auto write_json = [&](std::ostream& file) {
    obs::JsonWriter json(file);
    json.BeginObject();
    json.KV("command", "chaos-sweep");
    json.KV("queries", sweep->queries);
    json.KV("qps", sweep->qps);
    json.KV("seed", sweep->seed);
    json.KV("fault_seed", fault->fault_seed);
    json.KV("sla_us", *sla_us);
    json.KV("intensity_max", config.intensity_max);
    json.KV("intensity_points",
            static_cast<std::uint64_t>(config.intensity_points));
    json.Key("records");
    json.BeginArray();
    for (const sched::ChaosRecord& record : result.records) {
      const sched::SchedReport& r = record.report.base;
      json.BeginObject();
      json.KV("intensity", record.intensity);
      json.KV("policy", record.policy);
      json.KV("offered", r.offered);
      json.KV("served", r.served);
      json.KV("availability", r.availability);
      json.KV("p50_ns", r.serving.p50);
      json.KV("p99_ns", r.serving.p99);
      json.KV("goodput", 1.0 - r.slo.bad_fraction);
      json.KV("timed_out", record.report.timed_out);
      json.KV("retries", record.report.retries);
      json.KV("hedges", record.report.hedges);
      json.KV("hedge_wins", record.report.hedge_wins);
      json.KV("cancelled_completions", record.report.cancelled_completions);
      json.KV("breaker_opens", record.report.breaker_opens);
      json.KV("breaker_sheds", record.report.breaker_sheds);
      json.KV("forced_admits", record.report.forced_admits);
      json.KV("all_recovered", record.recovery.all_recovered);
      json.KV("worst_time_to_recover_ns",
              record.recovery.worst_time_to_recover_ns);
      json.Key("windows");
      json.BeginArray();
      for (const obs::WindowRecovery& w : record.recovery.windows) {
        json.BeginObject();
        json.KV("label", w.label);
        json.KV("goodput_during", w.goodput_during);
        json.KV("shed_rate_during", w.shed_rate_during);
        json.KV("burn_during", w.burn_during);
        json.KV("burn_after", w.burn_after);
        json.KV("hedge_wins_during", w.hedge_wins_during);
        json.KV("recovered", w.recovered);
        json.KV("time_to_recover_ns", w.time_to_recover_ns);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.Key("headlines");
    json.BeginArray();
    for (const sched::ChaosHeadline& h : result.headlines) {
      json.BeginObject();
      json.KV("intensity", h.intensity);
      json.KV("best_static", h.best_static);
      json.KV("best_static_p99_ns", h.best_static_p99);
      json.KV("best_static_goodput", h.best_static_goodput);
      json.KV("ft_p99_ns", h.ft_p99);
      json.KV("ft_goodput", h.ft_goodput);
      json.KV("ft_beats_all_static_p99", h.ft_beats_all_static_p99);
      json.KV("ft_beats_all_static_goodput", h.ft_beats_all_static_goodput);
      json.KV("ft_recovered", h.ft_recovered);
      json.KV("some_static_never_recovered", h.some_static_never_recovered);
      json.KV("win", h.win);
      json.EndObject();
    }
    json.EndArray();
    json.KV("headline_win", result.headline_win);
    json.EndObject();
    file << "\n";
  };
  MICROREC_RETURN_IF_ERROR(WriteJsonReport(args, write_json, out));

  if (config.record_events) {
    // The blessed point: highest intensity x breaker-retry-hedge.
    const sched::ChaosRecord& blessed = result.records.back();
    out << "flight recorder: intensity " << blessed.intensity << " x "
        << blessed.policy << ", " << blessed.events->size()
        << " event(s) recorded\n";
    const Nanoseconds span_ns =
        static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
    MICROREC_RETURN_IF_ERROR(WriteFlightRecorderOutputs(
        args, *blessed.events, blessed.report, config.sla_ns,
        config.slo_objective, span_ns, out));
  }
  return Status::Ok();
}

Status CmdExplain(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed({"query", "worst"}));
  if (args.positional().size() != 1) {
    return Status::InvalidArgument(
        "explain expects one positional argument: an event-log file "
        "recorded with sched-sweep/chaos-sweep --record-events");
  }
  auto text = ReadFile(args.positional()[0]);
  if (!text.ok()) return text.status();
  auto log = obs::EventLog::FromJson(*text);
  if (!log.ok()) return log.status();

  out << "event log: " << log->size() << " event(s), "
      << log->total_appended() << " appended, " << log->dropped()
      << " evicted";
  if (!log->backend_names().empty()) {
    out << "; fleet:";
    for (const std::string& name : log->backend_names()) out << " " << name;
  }
  out << "\n";
  std::uint64_t served = 0, sheds = 0, misses = 0;
  for (const obs::SchedEvent& e : log->events()) {
    switch (e.kind) {
      case obs::SchedEventKind::kServe:
      case obs::SchedEventKind::kHedgeWin:
        ++served;
        break;
      case obs::SchedEventKind::kShed:
        ++sheds;
        break;
      case obs::SchedEventKind::kDeadlineMiss:
        ++misses;
        break;
      default:
        break;
    }
  }
  out << "terminals: " << served << " served, " << sheds << " shed, "
      << misses << " deadline-missed\n";

  if (args.GetOption("query").has_value()) {
    auto query = args.GetUint("query", 0);
    if (!query.ok()) return query.status();
    const obs::QueryTimeline timeline =
        obs::BuildQueryTimeline(*log, *query);
    if (timeline.events.empty()) {
      return Status::NotFound("no recorded events for query " +
                              std::to_string(*query) +
                              " (evicted, or never offered)");
    }
    out << "\n" << obs::RenderTimeline(*log, timeline);
    return Status::Ok();
  }

  auto worst = args.GetUint("worst", 3);
  if (!worst.ok()) return worst.status();
  if (*worst == 0) return Status::InvalidArgument("--worst must be >= 1");
  const std::vector<obs::QueryTimeline> timelines = obs::RankWorstQueries(
      *log, static_cast<std::size_t>(*worst));
  if (timelines.empty()) {
    out << "no query events in the log\n";
    return Status::Ok();
  }
  out << "worst " << timelines.size()
      << " quer" << (timelines.size() == 1 ? "y" : "ies")
      << " (deadline misses, then sheds, then slowest served):\n";
  for (const obs::QueryTimeline& timeline : timelines) {
    out << "\n" << obs::RenderTimeline(*log, timeline);
  }
  return Status::Ok();
}

Status CmdPerfGate(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"baseline-dir", "current-dir", "tolerance", "tol"}));
  if (!args.positional().empty()) {
    return Status::InvalidArgument("perfgate takes no positional arguments");
  }
  const std::string baseline_dir =
      args.GetOption("baseline-dir").value_or("bench/baselines");
  const auto current_dir = args.GetOption("current-dir");
  if (!current_dir.has_value()) {
    return Status::InvalidArgument(
        "perfgate needs --current-dir (directory holding freshly generated "
        "BENCH_*.json files)");
  }

  obs::PerfGateOptions opts;
  auto tolerance = args.GetDouble("tolerance", opts.default_tolerance);
  if (!tolerance.ok()) return tolerance.status();
  if (*tolerance < 0.0) {
    return Status::InvalidArgument("--tolerance must be >= 0");
  }
  opts.default_tolerance = *tolerance;
  if (const auto overrides = args.GetOption("tol")) {
    // Comma-separated metric=tolerance pairs, e.g. --tol p99_ns=0.1,gops=0.
    std::istringstream stream(*overrides);
    std::string pair;
    while (std::getline(stream, pair, ',')) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument(
            "--tol expects metric=tolerance pairs, got '" + pair + "'");
      }
      auto value = ParseDouble("tol", pair.substr(eq + 1));
      if (!value.ok()) return value.status();
      opts.metric_tolerance[pair.substr(0, eq)] = *value;
    }
  }

  // Every baseline must have a fresh counterpart: a bench that silently
  // stopped emitting its report is itself a regression.
  std::error_code ec;
  std::filesystem::directory_iterator it(baseline_dir, ec);
  if (ec) {
    return Status::NotFound("cannot read --baseline-dir " + baseline_dir +
                            ": " + ec.message());
  }
  std::vector<std::filesystem::path> baselines;
  for (const auto& entry : it) {
    const std::string filename = entry.path().filename().string();
    if (filename.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      baselines.push_back(entry.path());
    }
  }
  std::sort(baselines.begin(), baselines.end());
  if (baselines.empty()) {
    return Status::InvalidArgument("no BENCH_*.json baselines in " +
                                   baseline_dir);
  }

  obs::PerfGateReport report;
  for (const auto& baseline_path : baselines) {
    const std::string name = baseline_path.stem().string();
    auto baseline_text = ReadFile(baseline_path.string());
    if (!baseline_text.ok()) return baseline_text.status();

    const auto current_path =
        std::filesystem::path(*current_dir) / baseline_path.filename();
    auto current_text = ReadFile(current_path.string());
    obs::PerfGateFileReport file;
    if (!current_text.ok()) {
      file.name = name;
      file.failures.push_back(name + ": missing current report " +
                              current_path.string());
    } else {
      auto compared =
          obs::ComparePerfReportText(name, *baseline_text, *current_text,
                                     opts);
      if (!compared.ok()) return compared.status();
      file = std::move(*compared);
    }
    report.metrics_compared += file.metrics_compared;
    report.failures += file.failures.size();
    report.files.push_back(std::move(file));
  }

  out << obs::RenderPerfGateReport(report);
  if (!report.pass()) {
    return Status::Internal(std::to_string(report.failures) +
                            " metric(s) outside tolerance");
  }
  return Status::Ok();
}

Status CmdProfile(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed(
      {"batch", "batches", "seed", "backend", "max-rows", "json",
       "prom-out"}));
  RecModelSpec model;
  if (args.positional().empty()) {
    model = PooledCpuGateModel();
  } else if (args.positional().size() == 1) {
    auto text = ReadFile(args.positional()[0]);
    if (!text.ok()) return text.status();
    auto parsed = ParseModel(*text);
    if (!parsed.ok()) return parsed.status();
    model = std::move(*parsed);
  } else {
    return Status::InvalidArgument("profile takes at most one <model-file>");
  }

  auto batch = args.GetUint("batch", 256);
  if (!batch.ok()) return batch.status();
  if (*batch == 0) return Status::InvalidArgument("--batch must be >= 1");
  auto batches = args.GetUint("batches", 64);
  if (!batches.ok()) return batches.status();
  if (*batches == 0) return Status::InvalidArgument("--batches must be >= 1");
  auto seed = args.GetUint("seed", 42);
  if (!seed.ok()) return seed.status();
  auto max_rows = args.GetUint("max-rows", 1ull << 16);
  if (!max_rows.ok()) return max_rows.status();
  if (*max_rows == 0) return Status::InvalidArgument("--max-rows must be >= 1");

  obs::prof::ProfilerOptions popts;
  if (const auto backend = args.GetOption("backend")) {
    if (*backend == "perf") {
      popts.backend = obs::prof::ProfBackend::kPerfEvent;
    } else if (*backend == "timer") {
      popts.backend = obs::prof::ProfBackend::kTimer;
    } else {
      return Status::InvalidArgument("--backend must be perf or timer");
    }
  }

  // One worker thread so the thread-scoped counters see the whole batch.
  CpuEngine engine(model, *max_rows, FrameworkOverheadParams{}, /*threads=*/1);
  QueryGenerator generator(model, IndexDistribution::kUniform, *seed);
  InferenceScratch scratch;
  engine.ReserveScratch(scratch, *batch);

  // Warm up detached: fault in table pages and grow every buffer to its
  // high-water mark so the measured batches profile steady-state work.
  const std::vector<SparseQuery> warmup = generator.NextBatch(*batch);
  engine.InferBatch(warmup, scratch);

  obs::prof::HwProfiler profiler(popts);
  engine.set_profiler(&profiler);
  double checksum = 0.0;
  for (std::uint64_t b = 0; b < *batches; ++b) {
    const std::vector<SparseQuery> queries = generator.NextBatch(*batch);
    const auto probs = engine.InferBatch(queries, scratch);
    checksum += probs.empty() ? 0.0 : probs.front();
  }
  engine.set_profiler(nullptr);

  const obs::prof::RooflineSpec roofline = obs::prof::ProbeRoofline();
  const auto report = obs::prof::ProfileReport::Build(profiler, roofline);

  out << "profiled " << model.name << ": " << *batches << " batches of "
      << *batch << " (checksum " << checksum << ")\n";
  out << report.ToText();

  const std::string json_path = args.GetOption("json").value_or("profile.json");
  MICROREC_RETURN_IF_ERROR(WriteNamedFile(json_path, report.ToJson(), out));
  if (const auto prom_path = args.GetOption("prom-out")) {
    obs::MetricsRegistry registry;
    report.ExportMetrics(registry);
    obs::prof::ProfileReport::ExportBatchLatency(profiler.batch_latency(),
                                                 registry);
    MICROREC_RETURN_IF_ERROR(
        WriteNamedFile(*prom_path, registry.ToPrometheus(), out));
  }
  return Status::Ok();
}

Status CmdSelfCheck(const ArgList& args, std::ostream& out) {
  MICROREC_RETURN_IF_ERROR(args.CheckAllowed({}));
  if (!args.positional().empty()) {
    return Status::InvalidArgument("selfcheck takes no arguments");
  }

  int failures = 0;
  auto check = [&](const char* name, bool ok, const std::string& detail) {
    out << (ok ? "[PASS] " : "[FAIL] ") << name << " (" << detail << ")\n";
    if (!ok) ++failures;
  };
  const auto platform = MemoryPlatformSpec::AlveoU280();

  // 1. Memory calibration: the two Table 5 endpoints the timing was
  //    fitted on, and one it predicts.
  {
    const Nanoseconds len4 = platform.hbm_timing.AccessLatency(16);
    const Nanoseconds len64 = platform.hbm_timing.AccessLatency(256);
    check("Table 5 anchor, len 4", std::abs(len4 - 334.5) < 2.0,
          std::to_string(len4) + " ns vs paper 334.5");
    check("Table 5 anchor, len 64", std::abs(len64 - 648.4) < 2.0,
          std::to_string(len64) + " ns vs paper 648.4");
  }

  // 2. Op accounting identity: ops/item x the paper's items/s reproduces
  //    its GOP/s for both models.
  {
    MlpSpec mlp;
    mlp.hidden = {1024, 512, 256};
    mlp.input_dim = 352;
    const double small_gops = mlp.OpsPerItem() * 3.05e5 / 1e9;
    check("GOP/s identity, small model", std::abs(small_gops - 619.5) < 2.0,
          std::to_string(small_gops) + " vs paper 619.50");
    mlp.input_dim = 876;
    const double large_gops = mlp.OpsPerItem() * 1.95e5 / 1e9;
    check("GOP/s identity, large model", std::abs(large_gops - 606.4) < 2.0,
          std::to_string(large_gops) + " vs paper 606.41");
  }

  // 3. Table 3 structure on both production models.
  for (bool large : {false, true}) {
    const RecModelSpec model =
        large ? LargeProductionModel() : SmallProductionModel();
    PlacementOptions options;
    options.max_onchip_tables = model.max_onchip_tables;
    auto with = HeuristicSearch(model.tables, platform, options);
    PlacementOptions no_cart = options;
    no_cart.allow_cartesian = false;
    auto without = HeuristicSearch(model.tables, platform, no_cart);
    if (!with.ok() || !without.ok()) {
      check("Table 3 structure", false, "placement failed");
      continue;
    }
    const bool ok =
        large ? (with->tables_total == 84 && with->tables_in_dram == 68 &&
                 with->dram_access_rounds == 2 &&
                 without->dram_access_rounds == 3)
              : (with->tables_total == 42 && with->tables_in_dram == 34 &&
                 with->dram_access_rounds == 1 &&
                 without->dram_access_rounds == 2);
    check(large ? "Table 3 structure, large model"
                : "Table 3 structure, small model",
          ok,
          std::to_string(with->tables_total) + " tables, " +
              std::to_string(with->tables_in_dram) + " DRAM, rounds " +
              std::to_string(without->dram_access_rounds) + "->" +
              std::to_string(with->dram_access_rounds));
  }

  // 4. Event-driven simulation agrees with the analytic model.
  {
    EngineOptions options;
    options.materialize = false;
    auto engine = MicroRecEngine::Build(SmallProductionModel(), options);
    if (!engine.ok()) {
      check("full-system agreement", false, engine.status().ToString());
    } else {
      SystemSimulator sim(*engine);
      const auto report = sim.Run(2000);
      const double delta =
          std::abs(report.throughput_items_per_s - engine->Throughput()) /
          engine->Throughput();
      check("full-system agreement", delta < 0.02,
            "delta " + std::to_string(100.0 * delta) + "%");
    }
  }

  if (failures > 0) {
    return Status::Internal(std::to_string(failures) + " check(s) failed");
  }
  out << "all checks passed\n";
  return Status::Ok();
}

std::string UsageText() {
  return
      "usage: microrec <command> [options]\n"
      "\n"
      "commands:\n"
      "  modelgen <small|large|dlrm> [--tables N] [--veclen L] [--out F]\n"
      "      emit a model spec (microrec-model v1 text format)\n"
      "  inspect <model-file>\n"
      "      summarize a model spec\n"
      "  plan <model-file> [--no-cartesian] [--no-onchip] [--out F]\n"
      "      run the heuristic table-combination + allocation search\n"
      "  record <model-file> [--queries N] [--qps R] [--seed S]\n"
      "         [--zipf THETA] [--out F]\n"
      "      record a Poisson query trace for replay\n"
      "  simulate <model-file> [--plan F] [--trace F] [--precision 16|32]\n"
      "           [--items N]\n"
      "      analytic + full-system timing of the accelerator\n"
      "  trace <model-file> [--queries N] [--qps R] [--seed S] [--sample N]\n"
      "        [--trace-out F] [--metrics-out F] [--prom-out F]\n"
      "        [--timeline] [--timeline-out F] [--slo] [--sla-us U]\n"
      "      full-system run with telemetry: Perfetto-loadable trace.json,\n"
      "      metrics.json / metrics.prom, per-stage p99 attribution table,\n"
      "      critical-path p99 drilldown; --timeline adds per-bank\n"
      "      utilization/backlog time series, --slo a burn-rate SLO report\n"
      "  update-sweep <model-file> [--queries N] [--qps R] [--seed S]\n"
      "               [--points K] [--update-qps-max U] [--policy fair|yield]\n"
      "               [--json F] [--threads T]\n"
      "      serving tail latency + staleness vs online update rate\n"
      "  fault-sweep <model-file> [--queries N] [--qps R] [--seed S]\n"
      "              [--fault-max-failed K] [--json F] [--threads T]\n"
      "      availability + degraded tail latency vs failed HBM channels\n"
      "      at table-replication factors 1/2/4\n"
      "  scaleout <model-file> [--queries N] [--seed S] [--points K]\n"
      "           [--qps-min R] [--qps-max R] [--sla-us U] [--json F]\n"
      "           [--threads T]\n"
      "      fleet provisioning + replicated-pipeline latency vs traffic\n"
      "  sched-sweep [--queries N] [--qps R] [--seed S] [--sla-us U]\n"
      "              [--json F] [--threads T] [--record-events F]\n"
      "              [--postmortem F]\n"
      "      scheduling policy x arrival process over the standard\n"
      "      four-path backend fleet (src/sched/), with the slo-aware vs\n"
      "      best-static p99 headline under bursty load; --record-events\n"
      "      attaches the flight recorder to the flash-crowd x slo-aware\n"
      "      point, --postmortem snapshots its burn-rate alerts\n"
      "  chaos-sweep [--queries N] [--qps R] [--seed S] [--sla-us U]\n"
      "              [--fault-intensity-max F] [--fault-points K]\n"
      "              [--fault-seed S] [--json F] [--threads T]\n"
      "              [--record-events F] [--postmortem F]\n"
      "      fault intensity x policy over the four-path fleet with\n"
      "      crash/brownout/stall fault injection on every backend;\n"
      "      compares breaker+retry+hedge scheduling against the static\n"
      "      policies on p99, goodput, and per-fault-window recovery;\n"
      "      --record-events attaches the flight recorder to the highest\n"
      "      intensity x breaker-retry-hedge point, --postmortem writes\n"
      "      the SLO-alert snapshot for it\n"
      "  explain <events-file> [--query ID] [--worst N]\n"
      "      reconstruct causal per-query timelines from a recorded event\n"
      "      log: every routing decision with the per-backend probes the\n"
      "      policy saw, breaker overrides, retries, hedges, and the\n"
      "      terminal fate; default ranks the N worst queries (deadline\n"
      "      misses first), --query drills into one id\n"
      "  perfgate --current-dir D [--baseline-dir D] [--tolerance F]\n"
      "           [--tol metric=F,metric=F]\n"
      "      compare fresh BENCH_*.json reports against checked-in\n"
      "      baselines; non-zero exit when any metric drifts out of\n"
      "      tolerance (improvements fail too: regenerate the baseline)\n"
      "  profile [model-file] [--batch N] [--batches K] [--seed S]\n"
      "          [--backend perf|timer] [--max-rows N] [--json F]\n"
      "          [--prom-out F]\n"
      "      profile the measured CPU engine on this machine: perf-counter\n"
      "      phase attribution (gather/gemm/head_sigmoid/batch), probed\n"
      "      roofline with memory- vs compute-bound verdicts, per-batch\n"
      "      wall-clock p50/p95/p99; writes profile.json (+ --prom-out\n"
      "      Prometheus snapshot); degrades to a wall-clock-only timer\n"
      "      tier when perf_event is unavailable\n"
      "  selfcheck\n"
      "      verify the reproduction's calibration anchors\n"
      "\n"
      "sweep commands accept --threads T (0 = one per hardware thread);\n"
      "output is byte-identical at every thread count\n";
}

Status RunCli(const std::vector<std::string>& tokens, std::ostream& out) {
  if (tokens.empty()) {
    out << UsageText();
    return Status::InvalidArgument("missing command");
  }
  const std::string& command = tokens[0];
  const std::vector<std::string> rest(tokens.begin() + 1, tokens.end());
  auto args = ArgList::Parse(
      rest, /*flag_keys=*/{"no-cartesian", "no-onchip", "timeline", "slo"});
  if (!args.ok()) return args.status();

  if (command == "modelgen") return CmdModelGen(*args, out);
  if (command == "inspect") return CmdInspect(*args, out);
  if (command == "plan") return CmdPlan(*args, out);
  if (command == "record") return CmdRecord(*args, out);
  if (command == "simulate") return CmdSimulate(*args, out);
  if (command == "trace") return CmdTrace(*args, out);
  if (command == "update-sweep") return CmdUpdateSweep(*args, out);
  if (command == "fault-sweep") return CmdFaultSweep(*args, out);
  if (command == "scaleout") return CmdScaleout(*args, out);
  if (command == "sched-sweep") return CmdSchedSweep(*args, out);
  if (command == "chaos-sweep") return CmdChaosSweep(*args, out);
  if (command == "explain") return CmdExplain(*args, out);
  if (command == "perfgate") return CmdPerfGate(*args, out);
  if (command == "profile") return CmdProfile(*args, out);
  if (command == "selfcheck") return CmdSelfCheck(*args, out);
  out << UsageText();
  return Status::InvalidArgument("unknown command '" + command + "'");
}

}  // namespace microrec::cli
