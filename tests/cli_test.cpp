// Tests for the microrec CLI: argument parsing and each subcommand driven
// through the same functions the binary dispatches to.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "obs/json_reader.hpp"

namespace microrec::cli {
namespace {

namespace fs = std::filesystem;

/// Temp-dir fixture: every file written by a test is cleaned up.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("microrec_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs the CLI and returns (status, captured stdout).
  std::pair<Status, std::string> Run(const std::vector<std::string>& tokens) {
    std::ostringstream out;
    Status status = RunCli(tokens, out);
    return {status, out.str()};
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream file(path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
  }

  fs::path dir_;
};

// ---------------------------------------------------------------- ArgList

TEST(ArgListTest, PositionalAndOptions) {
  auto args = ArgList::Parse({"model.txt", "--out", "plan.txt"}).value();
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "model.txt");
  EXPECT_EQ(args.GetOption("out").value(), "plan.txt");
  EXPECT_FALSE(args.GetOption("missing").has_value());
}

TEST(ArgListTest, FlagsConsumeNoValue) {
  auto args =
      ArgList::Parse({"--no-cartesian", "file"}, {"no-cartesian"}).value();
  EXPECT_TRUE(args.HasFlag("no-cartesian"));
  ASSERT_EQ(args.positional().size(), 1u);
}

TEST(ArgListTest, OptionMissingValueFails) {
  auto args = ArgList::Parse({"--out"});
  EXPECT_FALSE(args.ok());
}

TEST(ArgListTest, TypedAccess) {
  auto args = ArgList::Parse({"--items", "500"}).value();
  EXPECT_EQ(args.GetUint("items", 7).value(), 500u);
  EXPECT_EQ(args.GetUint("other", 7).value(), 7u);
  auto bad = ArgList::Parse({"--items", "abc"}).value();
  EXPECT_FALSE(bad.GetUint("items", 7).ok());
}

TEST(ArgListTest, CheckAllowedRejectsUnknown) {
  auto args = ArgList::Parse({"--bogus", "1"}).value();
  EXPECT_FALSE(args.CheckAllowed({"out"}).ok());
  EXPECT_TRUE(args.CheckAllowed({"bogus"}).ok());
}

// ---------------------------------------------------------------- Commands

TEST_F(CliTest, NoCommandPrintsUsage) {
  auto [status, out] = Run({});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  auto [status, out] = Run({"frobnicate"});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, ModelGenToStdout) {
  auto [status, out] = Run({"modelgen", "small"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("microrec-model v1"), std::string::npos);
  EXPECT_NE(out.find("name alibaba-small"), std::string::npos);
}

TEST_F(CliTest, ModelGenDlrmHonorsOptions) {
  auto [status, out] =
      Run({"modelgen", "dlrm", "--tables", "12", "--veclen", "64"});
  ASSERT_TRUE(status.ok());
  EXPECT_NE(out.find("dlrm-rmc2-12t-64d"), std::string::npos);
}

TEST_F(CliTest, ModelGenDlrmRejectsOutOfRangeShapes) {
  // Zero, or a count past 32 bits, must not reach DlrmRmc2Model; the last
  // shape is in range per flag but its feature length overflows 32 bits,
  // so `inspect` would reject the file.
  const std::vector<std::vector<std::string>> bad_shapes = {
      {"--tables", "0"},
      {"--tables", "4294967296"},
      {"--veclen", "0"},
      {"--veclen", "4294967296"},
      {"--tables", "2", "--veclen", "2147483648"},
  };
  for (const auto& shape : bad_shapes) {
    const std::string model_path = Path("model.txt");
    std::vector<std::string> tokens = {"modelgen", "dlrm", "--out", model_path};
    tokens.insert(tokens.end(), shape.begin(), shape.end());
    auto [status, out] = Run(tokens);
    const std::string label = ::testing::PrintToString(shape);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
    EXPECT_FALSE(fs::exists(model_path)) << label;
  }
}

TEST_F(CliTest, ModelGenRejectsUnknownKind) {
  auto [status, out] = Run({"modelgen", "medium"});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, RoundTripThroughFiles) {
  const std::string model_path = Path("model.txt");
  {
    auto [status, out] = Run({"modelgen", "small", "--out", model_path});
    ASSERT_TRUE(status.ok()) << status;
  }
  {
    auto [status, out] = Run({"inspect", model_path});
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_NE(out.find("47 tables"), std::string::npos);
    EXPECT_NE(out.find("feature length 352"), std::string::npos);
  }
  const std::string plan_path = Path("plan.txt");
  {
    auto [status, out] = Run({"plan", model_path, "--out", plan_path});
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_NE(out.find("5 products"), std::string::npos);
    EXPECT_NE(out.find("1 DRAM round"), std::string::npos);
  }
  {
    auto [status, out] = Run({"simulate", model_path, "--plan", plan_path,
                              "--items", "100"});
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_NE(out.find("analytic:"), std::string::npos);
    EXPECT_NE(out.find("simulated 100 items"), std::string::npos);
  }
}

TEST_F(CliTest, PlanNoCartesianFlag) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"plan", model_path, "--no-cartesian"});
  ASSERT_TRUE(status.ok());
  EXPECT_NE(out.find("0 products"), std::string::npos);
  EXPECT_NE(out.find("2 DRAM round"), std::string::npos);
}

TEST_F(CliTest, InspectMissingFileFails) {
  auto [status, out] = Run({"inspect", Path("nope.txt")});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(CliTest, SimulateRejectsBadPrecision) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"simulate", model_path, "--precision", "8"});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, SimulateRejectsCorruptPlan) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string plan_path = Path("plan.txt");
  std::ofstream(plan_path) << "microrec-plan v1\nplace 0 9999\n";
  auto [status, out] = Run({"simulate", model_path, "--plan", plan_path});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, RecordAndReplay) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string trace_path = Path("trace.txt");
  {
    auto [status, out] = Run({"record", model_path, "--queries", "50", "--qps",
                              "100000", "--zipf", "0.9", "--out", trace_path});
    ASSERT_TRUE(status.ok()) << status;
  }
  {
    auto [status, out] =
        Run({"simulate", model_path, "--trace", trace_path});
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_NE(out.find("replayed trace of 50 queries"), std::string::npos);
  }
}

TEST_F(CliTest, RecordIsDeterministicPerSeed) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [s1, a] = Run({"record", model_path, "--queries", "10", "--seed", "5"});
  auto [s2, b] = Run({"record", model_path, "--queries", "10", "--seed", "5"});
  auto [s3, c] = Run({"record", model_path, "--queries", "10", "--seed", "6"});
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_F(CliTest, RecordRejectsBadZipf) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  for (const char* bad : {"hot", "0.9abc", "-2", "nan"}) {
    auto [status, out] = Run({"record", model_path, "--zipf", bad});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(CliTest, SimulateRejectsMismatchedTrace) {
  // A trace recorded for the DLRM model cannot replay against the small
  // production model (index count differs).
  const std::string small_path = Path("small.txt");
  const std::string dlrm_path = Path("dlrm.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", small_path}).first.ok());
  ASSERT_TRUE(Run({"modelgen", "dlrm", "--out", dlrm_path}).first.ok());
  const std::string trace_path = Path("trace.txt");
  ASSERT_TRUE(Run({"record", dlrm_path, "--queries", "5", "--out", trace_path})
                  .first.ok());
  auto [status, out] = Run({"simulate", small_path, "--trace", trace_path});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, TraceWritesTelemetryArtifacts) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string trace_path = Path("trace.json");
  const std::string metrics_path = Path("metrics.json");
  const std::string prom_path = Path("metrics.prom");
  auto [status, out] =
      Run({"trace", model_path, "--queries", "200", "--qps", "200000",
           "--sample", "10", "--trace-out", trace_path, "--metrics-out",
           metrics_path, "--prom-out", prom_path});
  ASSERT_TRUE(status.ok()) << status << "\n" << out;
  EXPECT_NE(out.find("traced 200 queries"), std::string::npos);
  EXPECT_NE(out.find("p99 latency attribution"), std::string::npos);
  EXPECT_NE(out.find("TOTAL"), std::string::npos);

  const auto slurp = [](const std::string& p) {
    std::ifstream f(p);
    std::stringstream s;
    s << f.rdbuf();
    return s.str();
  };
  const std::string trace = slurp(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  const std::string metrics = slurp(metrics_path);
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("system_item_latency_ns"), std::string::npos);
  EXPECT_NE(metrics.find("memsim_accesses_total"), std::string::npos);
  const std::string prom = slurp(prom_path);
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
  EXPECT_NE(prom.find("_bucket{"), std::string::npos);
}

TEST_F(CliTest, TraceRejectsBadSample) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"trace", model_path, "--sample", "0"});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, SelfCheckPasses) {
  auto [status, out] = Run({"selfcheck"});
  ASSERT_TRUE(status.ok()) << status << "\n" << out;
  EXPECT_NE(out.find("all checks passed"), std::string::npos);
  EXPECT_EQ(out.find("[FAIL]"), std::string::npos);
}

TEST_F(CliTest, SelfCheckRejectsArguments) {
  auto [status, out] = Run({"selfcheck", "extra"});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, UnknownOptionRejected) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"plan", model_path, "--frob", "1"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown option"), std::string::npos);
}

TEST_F(CliTest, UpdateSweepSmoke) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string json_path = Path("sweep.json");
  auto [status, out] =
      Run({"update-sweep", model_path, "--queries", "400", "--qps", "200000",
           "--points", "3", "--update-qps-max", "1000000", "--policy",
           "yield", "--json", json_path});
  ASSERT_TRUE(status.ok()) << status << "\n" << out;
  EXPECT_NE(out.find("update sweep for alibaba-small"), std::string::npos);
  EXPECT_NE(out.find("policy updates-yield"), std::string::npos);
  EXPECT_NE(out.find("update_qps"), std::string::npos);
  // Three sweep points: the exact-zero baseline plus two geometric rates.
  EXPECT_NE(out.find("\n         0  "), std::string::npos);
  EXPECT_NE(out.find("\n    500000  "), std::string::npos);
  EXPECT_NE(out.find("\n   1000000  "), std::string::npos);
  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream contents;
  contents << json.rdbuf();
  EXPECT_NE(contents.str().find("\"command\": \"update-sweep\""),
            std::string::npos);
  EXPECT_NE(contents.str().find("\"records\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"staleness_p99_ns\""), std::string::npos);
}

TEST_F(CliTest, FaultSweepSmoke) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string json_path = Path("faults.json");
  auto [status, out] =
      Run({"fault-sweep", model_path, "--queries", "400", "--qps", "200000",
           "--max-failed", "2", "--json", json_path});
  ASSERT_TRUE(status.ok()) << status << "\n" << out;
  EXPECT_NE(out.find("fault sweep for alibaba-small"), std::string::npos);
  EXPECT_NE(out.find("availability"), std::string::npos);
  // All three replication factors appear with a zero-failure baseline row.
  for (const char* row : {"\n       1          0", "\n       2          0",
                          "\n       4          0"}) {
    EXPECT_NE(out.find(row), std::string::npos) << row;
  }
  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream contents;
  contents << json.rdbuf();
  EXPECT_NE(contents.str().find("\"command\": \"fault-sweep\""),
            std::string::npos);
  EXPECT_NE(contents.str().find("\"records\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"availability\""), std::string::npos);
}

TEST_F(CliTest, FaultSweepRejectsBadMaxFailed) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] =
      Run({"fault-sweep", model_path, "--max-failed", "nope"});
  EXPECT_FALSE(status.ok());
}

TEST_F(CliTest, NegativeUintOptionRejectedNotWrapped) {
  // stoull would happily wrap "-5" to ~1.8e19 and the sweep would then try
  // to reserve that many arrivals; the parser must reject it instead.
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] =
      Run({"fault-sweep", model_path, "--queries", "-5"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("integer"), std::string::npos);
}

TEST_F(CliTest, UpdateSweepRejectsBadPolicy) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] =
      Run({"update-sweep", model_path, "--policy", "sometimes"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--policy"), std::string::npos);
}

// --------------------------------------------------- parallel determinism

TEST_F(CliTest, UpdateSweepStdoutIdenticalAcrossThreadCounts) {
  // The sweep's full stdout and JSON report are the golden artifacts:
  // running with 8 worker threads must reproduce the serial bytes exactly.
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string json1 = Path("sweep1.json");
  const std::string json8 = Path("sweep8.json");
  auto [s1, out1] = Run({"update-sweep", model_path, "--queries", "400",
                         "--json", json1, "--threads", "1"});
  auto [s8, out8] = Run({"update-sweep", model_path, "--queries", "400",
                         "--json", json8, "--threads", "8"});
  ASSERT_TRUE(s1.ok()) << s1.message();
  ASSERT_TRUE(s8.ok()) << s8.message();
  // stdout differs only in the JSON path it echoes; strip that line.
  auto strip = [](std::string text) {
    const auto pos = text.find("wrote JSON report");
    return pos == std::string::npos ? text : text.substr(0, pos);
  };
  EXPECT_EQ(strip(out1), strip(out8));
  EXPECT_EQ(Slurp(json1), Slurp(json8));
  EXPECT_NE(Slurp(json1).find("update_qps"), std::string::npos);
}

TEST_F(CliTest, FaultSweepStdoutIdenticalAcrossThreadCounts) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [s1, out1] = Run({"fault-sweep", model_path, "--queries", "400",
                         "--threads", "1"});
  auto [s8, out8] = Run({"fault-sweep", model_path, "--queries", "400",
                         "--threads", "8"});
  ASSERT_TRUE(s1.ok()) << s1.message();
  ASSERT_TRUE(s8.ok()) << s8.message();
  EXPECT_EQ(out1, out8);
}

TEST_F(CliTest, SweepThreadsZeroMeansHardwareConcurrency) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"update-sweep", model_path, "--queries", "200",
                            "--threads", "0"});
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST_F(CliTest, SweepRejectsBadThreads) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"update-sweep", model_path, "--threads", "two"});
  EXPECT_FALSE(status.ok());
}

// ---------------------------------------------------------------- scaleout

TEST_F(CliTest, ScaleoutSmoke) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"scaleout", model_path, "--queries", "500",
                            "--points", "2"});
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_NE(out.find("provisioned"), std::string::npos);
  EXPECT_NE(out.find("cards"), std::string::npos);
}

TEST_F(CliTest, ScaleoutStdoutIdenticalAcrossThreadCounts) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [s1, out1] = Run({"scaleout", model_path, "--queries", "500",
                         "--points", "3", "--threads", "1"});
  auto [s8, out8] = Run({"scaleout", model_path, "--queries", "500",
                         "--points", "3", "--threads", "8"});
  ASSERT_TRUE(s1.ok()) << s1.message();
  ASSERT_TRUE(s8.ok()) << s8.message();
  EXPECT_EQ(out1, out8);
}

TEST_F(CliTest, ScaleoutHugeTargetKeepsPlannedCardCount) {
  // 2^64 - 1 q/s plans ~8.1e13 cards: the simulated pool must neither
  // wrap that count into 32 bits nor allocate it, and the printed plan
  // still reports every card.
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] =
      Run({"scaleout", model_path, "--points", "1", "--qps-min",
           "18446744073709551615", "--qps-max", "18446744073709551615",
           "--queries", "10"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find(" 81088812490682  provisioned"), std::string::npos)
      << out;
}

TEST_F(CliTest, ScaleoutRejectsBadQpsRange) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  auto [status, out] = Run({"scaleout", model_path, "--qps-min", "2000000",
                            "--qps-max", "1000000"});
  EXPECT_FALSE(status.ok());
}

// ---------------------------------------------------------------- trace
// (analysis flags)

TEST_F(CliTest, TraceTimelineAndSloFlags) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string timeline_path = Path("timeline.json");
  auto [status, out] =
      Run({"trace", model_path, "--queries", "300", "--qps", "300000",
           "--timeline", "--slo", "--sla-us", "200",
           "--trace-out", Path("t.json"), "--metrics-out", Path("m.json"),
           "--prom-out", Path("m.prom"), "--timeline-out", timeline_path});
  ASSERT_TRUE(status.ok()) << status << "\n" << out;
  // The critical-path drilldown prints alongside the stage table, and the
  // component sum reproduces the p99 query's end-to-end latency.
  EXPECT_NE(out.find("critical-path attribution"), std::string::npos);
  EXPECT_NE(out.find("p99 drilldown"), std::string::npos);
  EXPECT_NE(out.find("slo latency:"), std::string::npos);
  const std::string timeline = Slurp(timeline_path);
  EXPECT_NE(timeline.find("\"series\""), std::string::npos);
  EXPECT_NE(timeline.find("memsim_bank_busy_ns"), std::string::npos);
  EXPECT_NE(timeline.find("memsim_bank_queue_ns"), std::string::npos);
}

// ---------------------------------------------------------------- perfgate

TEST_F(CliTest, PerfGatePassesThenFailsOnRegression) {
  const std::string base_dir = Path("baselines");
  const std::string cur_dir = Path("current");
  fs::create_directories(base_dir);
  fs::create_directories(cur_dir);
  const std::string doc =
      "{\"bench\": \"demo\", \"qps\": 100,\n"
      " \"records\": [{\"p99_ns\": 100.0, \"name\": \"a\"}]}\n";
  std::ofstream(base_dir + "/BENCH_demo.json") << doc;
  std::ofstream(cur_dir + "/BENCH_demo.json") << doc;

  auto [ok_status, ok_out] =
      Run({"perfgate", "--baseline-dir", base_dir, "--current-dir", cur_dir});
  ASSERT_TRUE(ok_status.ok()) << ok_status << "\n" << ok_out;
  EXPECT_NE(ok_out.find("perfgate: PASS"), std::string::npos);

  // A synthetic 20% latency regression must fail the gate...
  std::string regressed = doc;
  regressed.replace(regressed.find("100.0"), 5, "120.0");
  std::ofstream(cur_dir + "/BENCH_demo.json") << regressed;
  auto [bad_status, bad_out] =
      Run({"perfgate", "--baseline-dir", base_dir, "--current-dir", cur_dir});
  EXPECT_FALSE(bad_status.ok());
  EXPECT_NE(bad_out.find("perfgate: FAIL"), std::string::npos);
  EXPECT_NE(bad_out.find("regressed"), std::string::npos);

  // ...unless the metric's tolerance is widened explicitly.
  auto [tol_status, tol_out] =
      Run({"perfgate", "--baseline-dir", base_dir, "--current-dir", cur_dir,
           "--tol", "p99_ns=0.25"});
  EXPECT_TRUE(tol_status.ok()) << tol_out;
}

TEST_F(CliTest, PerfGateFailsOnMissingCurrentReport) {
  const std::string base_dir = Path("baselines");
  const std::string cur_dir = Path("current");
  fs::create_directories(base_dir);
  fs::create_directories(cur_dir);
  std::ofstream(base_dir + "/BENCH_demo.json")
      << "{\"bench\": \"demo\", \"records\": []}\n";
  auto [status, out] =
      Run({"perfgate", "--baseline-dir", base_dir, "--current-dir", cur_dir});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(out.find("missing current report"), std::string::npos);
}

TEST_F(CliTest, PerfGateRejectsBadArguments) {
  EXPECT_FALSE(Run({"perfgate"}).first.ok());  // --current-dir required
  EXPECT_FALSE(Run({"perfgate", "--current-dir", Path("x"), "--baseline-dir",
                    Path("nonexistent")})
                   .first.ok());
  const std::string base_dir = Path("baselines");
  fs::create_directories(base_dir);
  std::ofstream(base_dir + "/BENCH_demo.json") << "{}";
  EXPECT_FALSE(Run({"perfgate", "--baseline-dir", base_dir, "--current-dir",
                    Path("x"), "--tol", "nonsense"})
                   .first.ok());
  // A NaN or infinite tolerance is refused, not compared against.
  for (const auto& [option, value] :
       {std::pair{"--tolerance", "nan"}, std::pair{"--tol", "p99_ns=inf"}}) {
    const Status status = Run({"perfgate", "--baseline-dir", base_dir,
                               "--current-dir", Path("x"), option, value})
                              .first;
    EXPECT_NE(status.message().find("expects a number"), std::string::npos)
        << option << " " << value;
  }
}

// A model name is any whitespace-free token, quotes and backslashes
// included; every sweep's --json report must still parse and carry it.
TEST_F(CliTest, SweepJsonEscapesTheModelName) {
  const std::string generated = Path("generated.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", generated}).first.ok());
  const std::string weird_name = "we\"ird\\model";
  std::string text = Slurp(generated);
  const std::string name_line = "name alibaba-small\n";
  const std::size_t at = text.find(name_line);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, name_line.size(), "name " + weird_name + "\n");
  const std::string model_path = Path("model.txt");
  std::ofstream(model_path) << text;

  const std::vector<std::vector<std::string>> commands = {
      {"update-sweep", model_path, "--queries", "200", "--points", "2",
       "--update-qps-max", "1000"},
      {"fault-sweep", model_path, "--queries", "200", "--max-failed", "1"},
      {"scaleout", model_path, "--queries", "200", "--points", "1"},
  };
  for (std::vector<std::string> tokens : commands) {
    const std::string json_path = Path(tokens[0] + ".json");
    tokens.push_back("--json");
    tokens.push_back(json_path);
    auto [status, out] = Run(tokens);
    ASSERT_TRUE(status.ok()) << tokens[0] << ": " << status << "\n" << out;
    auto doc = obs::JsonValue::Parse(Slurp(json_path));
    ASSERT_TRUE(doc.ok()) << tokens[0] << ": " << doc.status();
    const obs::JsonValue* model = doc->Find("model");
    ASSERT_NE(model, nullptr) << tokens[0];
    ASSERT_TRUE(model->is_string()) << tokens[0];
    EXPECT_EQ(model->AsString(), weird_name) << tokens[0];
  }
}

// ---------------------------------------------------------------- fault-sweep
// (SLO columns)

TEST_F(CliTest, FaultSweepReportsSloColumns) {
  const std::string model_path = Path("model.txt");
  ASSERT_TRUE(Run({"modelgen", "small", "--out", model_path}).first.ok());
  const std::string json_path = Path("faults.json");
  auto [status, out] =
      Run({"fault-sweep", model_path, "--queries", "400", "--qps", "200000",
           "--max-failed", "1", "--json", json_path});
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_NE(out.find("alert_ms"), std::string::npos);
  EXPECT_NE(out.find("budget%"), std::string::npos);
  const std::string json = Slurp(json_path);
  EXPECT_NE(json.find("\"slo_alerted\""), std::string::npos);
  EXPECT_NE(json.find("\"time_to_alert_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"error_budget_remaining\""), std::string::npos);
}

}  // namespace
}  // namespace microrec::cli
