// Failure-injection tests: contract violations must abort loudly (never
// UB), recoverable input errors must return Status, and logging must be
// safe at every level.
#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "embedding/embedding_table.hpp"
#include "embedding/table_spec.hpp"
#include "faults/fault_schedule.hpp"
#include "memsim/channel_sim.hpp"
#include "memsim/dram_timing.hpp"
#include "tensor/matrix.hpp"

namespace microrec {
namespace {

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

TEST(LoggingTest, MessagesBelowLevelAreDiscardedWithoutCrash) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  MICROREC_LOG(kDebug) << "invisible " << 42;
  MICROREC_LOG(kInfo) << "also invisible";
  SetLogLevel(original);
}

TEST(LoggingTest, StreamAcceptsMixedTypes) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // keep test output clean
  MICROREC_LOG(kWarning) << "x=" << 1 << " y=" << 2.5 << " z=" << "str";
  SetLogLevel(original);
}

TEST(LoggingTest, FilteredMessageArgumentsAreNeverEvaluated) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  const auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string(1 << 20, 'x');
  };
  MICROREC_LOG(kDebug) << "never built: " << expensive();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_TRUE(LogEnabled(LogLevel::kDebug));
  SetLogLevel(original);
}

TEST(LoggingTest, LogEnabledTracksLevel) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarning));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  SetLogLevel(original);
}

// ---------------------------------------------------------------- Aborts

using FailureDeathTest = ::testing::Test;

TEST(FailureDeathTest, MatrixOutOfBoundsAborts) {
  MatrixF m(2, 2);
  EXPECT_DEATH(m(2, 0) = 1.0f, "MICROREC_CHECK");
  EXPECT_DEATH(m(0, 5) = 1.0f, "MICROREC_CHECK");
}

TEST(FailureDeathTest, MatrixRowOutOfBoundsAborts) {
  MatrixF m(2, 2);
  EXPECT_DEATH(m.row(7), "MICROREC_CHECK");
}

TEST(FailureDeathTest, EmbeddingLookupPastVocabularyAborts) {
  TableSpec spec;
  spec.id = 0;
  spec.name = "t";
  spec.rows = 10;
  spec.dim = 4;
  const auto table = EmbeddingTable::Materialize(spec, 1);
  EXPECT_DEATH(table.Lookup(10), "MICROREC_CHECK");
}

TEST(FailureDeathTest, MismatchedElementWidthProductAborts) {
  TableSpec a;
  a.id = 0;
  a.name = "a";
  a.rows = 2;
  a.dim = 4;
  TableSpec b = a;
  b.id = 1;
  b.element_bytes = 2;
  EXPECT_DEATH(CombinedTable({a, b}), "MICROREC_CHECK");
}

TEST(FailureDeathTest, CombinedRowIndexValidatesMemberCount) {
  const CombinedTable product(std::vector<TableSpec>{
      TableSpec{0, "a", 4, 4, 4}, TableSpec{1, "b", 4, 4, 4}});
  EXPECT_DEATH(product.CombinedRowIndex({1}), "MICROREC_CHECK");
  EXPECT_DEATH(product.CombinedRowIndex({1, 99}), "MICROREC_CHECK");
}

TEST(FailureDeathTest, SubUnityLatencyScaleAborts) {
  // latency_scale < 1 would make a "fault" a speedup; the channel treats
  // it as a contract violation, not a recoverable input.
  ChannelSim channel(HbmChannelTiming());
  MemRequest request;
  request.arrival_ns = 0.0;
  request.bytes = 64;
  request.latency_scale = 0.5;
  EXPECT_DEATH(channel.Serve(request), "MICROREC_CHECK");
}

// ---------------------------------------------------------------- Status

TEST(FaultScheduleStatusTest, MalformedEventsReturnStatusNotAbort) {
  // Fault windows come from user-facing config (CLI sweeps, generated
  // schedules), so a bad window is a recoverable input error.
  FaultSchedule schedule;
  FaultEvent inverted;
  inverted.kind = FaultKind::kChannelFail;
  inverted.start_ns = 100.0;
  inverted.end_ns = 50.0;
  const Status status = schedule.Add(inverted);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(schedule.empty());
}

TEST(FaultScheduleStatusTest, GenerateRejectsBadConfig) {
  FaultScheduleConfig config;
  config.horizon_ns = -1.0;
  EXPECT_FALSE(GenerateFaultSchedule(config).ok());
  config = FaultScheduleConfig{};
  config.horizon_ns = 1000.0;
  config.channel_fail_per_s = 10.0;  // rate without banks to fail
  config.num_banks = 0;
  EXPECT_FALSE(GenerateFaultSchedule(config).ok());
}

// ---------------------------------------------------------------- StatusOr

TEST(FailureDeathTest, StatusOrValueOnErrorAborts) {
  StatusOr<int> err = Status::NotFound("nope");
  EXPECT_DEATH(err.value(), "");
}

}  // namespace
}  // namespace microrec
