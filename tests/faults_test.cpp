// Tests for the fault-injection subsystem (src/faults/) and the retry
// machinery it drives in the fpga host interface:
//   * schedules validate their events and generate deterministically;
//   * failover routing never silently drops a lookup -- every lookup lands
//     on a live bank or is counted as shed;
//   * DMA retry/backoff timing is exactly bounded by the policy;
//   * the fault sweep's zero-failure points are field-for-field identical
//     to a fault-free pipeline pool, a table with no live replica sheds
//     every query, and replicas re-route a failed channel instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/microrec.hpp"
#include "faults/failover.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/retry.hpp"
#include "memsim/hybrid_memory.hpp"
#include "placement/replication.hpp"
#include "sched/backends.hpp"
#include "sched/fault_sweep.hpp"
#include "sched/ft_scheduler.hpp"
#include "serving/serving_sim.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {
namespace {

FaultEvent Event(FaultKind kind, Nanoseconds start, Nanoseconds end,
                 std::uint32_t target = 0, double magnitude = 1.0) {
  FaultEvent e;
  e.kind = kind;
  e.start_ns = start;
  e.end_ns = end;
  e.target = target;
  e.magnitude = magnitude;
  return e;
}

// ---------------------------------------------------------------- Schedule

TEST(FaultScheduleTest, AddValidatesWindows) {
  FaultSchedule schedule;
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelFail, 10.0, 10.0)).ok());
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelFail, 10.0, 5.0)).ok());
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelFail, -1.0, 5.0)).ok());
  // A degrade multiplier below 1 would turn a fault into a speedup.
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 5.0, 0, 0.5)).ok());
  EXPECT_TRUE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 5.0, 0, 2.0)).ok());
  EXPECT_EQ(schedule.events().size(), 1u);
}

TEST(FaultScheduleTest, PointQueriesRespectWindows) {
  FaultSchedule schedule;
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kChannelFail, 100.0, 200.0, 3)).ok());
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 50.0, 1, 2.0)).ok());
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 50.0, 1, 3.0)).ok());
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kReplicaCrash, 10.0, 20.0, 0)).ok());
  ASSERT_TRUE(schedule.Add(Event(FaultKind::kDmaStall, 40.0, 90.0)).ok());

  // Closed-open interval: failed at start, recovered at end.
  EXPECT_TRUE(schedule.BankAvailable(3, 99.0));
  EXPECT_FALSE(schedule.BankAvailable(3, 100.0));
  EXPECT_FALSE(schedule.BankAvailable(3, 199.0));
  EXPECT_TRUE(schedule.BankAvailable(3, 200.0));
  EXPECT_TRUE(schedule.BankAvailable(4, 150.0));  // other banks untouched

  // Overlapping degrades multiply; outside the window the bank is exact 1.
  EXPECT_DOUBLE_EQ(schedule.BankLatencyMultiplier(1, 25.0), 6.0);
  EXPECT_EQ(schedule.BankLatencyMultiplier(1, 60.0), 1.0);
  EXPECT_EQ(schedule.BankLatencyMultiplier(0, 25.0), 1.0);

  EXPECT_FALSE(schedule.ReplicaAlive(0, 15.0));
  EXPECT_TRUE(schedule.ReplicaAlive(0, 25.0));
  EXPECT_TRUE(schedule.ReplicaAlive(1, 15.0));

  EXPECT_EQ(schedule.StallEnd(0, 50.0), 90.0);
  EXPECT_EQ(schedule.StallEnd(0, 95.0), 95.0);  // healthy: returns now
}

TEST(FaultScheduleTest, FailChannelsIsPermanent) {
  const FaultSchedule schedule = FaultSchedule::FailChannels({2, 7});
  EXPECT_FALSE(schedule.BankAvailable(2, 0.0));
  EXPECT_FALSE(schedule.BankAvailable(7, 1e15));
  EXPECT_TRUE(schedule.BankAvailable(3, 1e15));
}

TEST(FaultScheduleTest, GenerationIsDeterministic) {
  FaultScheduleConfig config;
  config.seed = 99;
  config.horizon_ns = Milliseconds(200);
  config.num_banks = 8;
  config.channel_fail_per_s = 50.0;
  config.channel_degrade_per_s = 80.0;
  config.num_replicas = 4;
  config.replica_crash_per_s = 30.0;
  config.dma_stall_per_s = 20.0;

  const auto a = GenerateFaultSchedule(config).value();
  const auto b = GenerateFaultSchedule(config).value();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].start_ns, b.events()[i].start_ns);
    EXPECT_EQ(a.events()[i].end_ns, b.events()[i].end_ns);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }

  FaultScheduleConfig other = config;
  other.seed = 100;
  const auto c = GenerateFaultSchedule(other).value();
  bool identical = a.events().size() == c.events().size();
  for (std::size_t i = 0; identical && i < a.events().size(); ++i) {
    identical = a.events()[i].start_ns == c.events()[i].start_ns;
  }
  EXPECT_FALSE(identical);
}

TEST(FaultScheduleTest, CategoriesDrawFromIndependentStreams) {
  // Turning replica crashes on must not perturb the channel-fail stream:
  // each (kind, target) pair has its own sub-seeded generator.
  FaultScheduleConfig base;
  base.seed = 7;
  base.horizon_ns = Milliseconds(100);
  base.num_banks = 4;
  base.channel_fail_per_s = 100.0;

  FaultScheduleConfig with_crashes = base;
  with_crashes.num_replicas = 2;
  with_crashes.replica_crash_per_s = 200.0;

  auto fails_of = [](const FaultSchedule& s) {
    std::vector<FaultEvent> fails;
    for (const auto& e : s.events()) {
      if (e.kind == FaultKind::kChannelFail) fails.push_back(e);
    }
    return fails;
  };
  const auto a = fails_of(GenerateFaultSchedule(base).value());
  const auto b = fails_of(GenerateFaultSchedule(with_crashes).value());
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_ns, b[i].start_ns);
    EXPECT_EQ(a[i].target, b[i].target);
  }
}

TEST(FaultScheduleTest, EmptyConfigGeneratesEmptySchedule) {
  FaultScheduleConfig config;
  config.horizon_ns = Milliseconds(100);
  config.num_banks = 32;
  config.num_replicas = 4;  // all rates zero
  EXPECT_TRUE(GenerateFaultSchedule(config).value().empty());
}

// ---------------------------------------------------------------- Failover

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = DlrmRmc2Model(8, 32);
    platform_ = MemoryPlatformSpec::AlveoU280();
    ReplicationOptions options;
    options.lookups_per_table = model_.lookups_per_table;
    options.max_replicas = 2;
    options.availability_replicas = 2;
    plan_ = ReplicateAndPlace(model_.tables, platform_, options).value();
  }

  RecModelSpec model_;
  MemoryPlatformSpec platform_;
  ReplicationPlan plan_;
};

TEST_F(FailoverTest, HealthyRoutingMatchesPlanExactly) {
  const FailoverRouter router(&plan_, nullptr);
  const auto routed = router.Route(model_.lookups_per_table, 0.0);
  const auto expected = plan_.ToBankAccesses(model_.lookups_per_table);
  EXPECT_EQ(routed.shed_lookups, 0u);
  EXPECT_TRUE(routed.fully_servable());
  ASSERT_EQ(routed.accesses.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(routed.accesses[i].bank, expected[i].bank);
    EXPECT_EQ(routed.accesses[i].bytes, expected[i].bytes);
  }
  EXPECT_DOUBLE_EQ(router.DegradedLookupLatency(model_.lookups_per_table,
                                                platform_, 0.0),
                   plan_.lookup_latency_ns);
}

TEST_F(FailoverTest, EveryLookupLandsOnLiveBankOrIsShed) {
  // Kill every second HBM channel the plan uses; whatever survives must
  // absorb the re-routed lookups, and the totals must balance exactly --
  // a lookup is either routed to a live bank or counted as shed, never
  // silently dropped.
  std::vector<std::uint32_t> victims;
  for (const auto& table : plan_.tables) {
    if (table.banks[0] < platform_.hbm_channels && victims.size() % 2 == 0) {
      victims.push_back(table.banks[0]);
    }
  }
  ASSERT_FALSE(victims.empty());
  const FaultSchedule schedule = FaultSchedule::FailChannels(victims);
  const FailoverRouter router(&plan_, &schedule);
  const auto routed = router.Route(model_.lookups_per_table, 0.0);

  for (const auto& access : routed.accesses) {
    EXPECT_TRUE(schedule.BankAvailable(access.bank, 0.0))
        << "lookup routed to dead bank " << access.bank;
  }
  const std::uint64_t total = static_cast<std::uint64_t>(
      plan_.tables.size() * model_.lookups_per_table);
  EXPECT_EQ(routed.accesses.size() + routed.shed_lookups, total);
  EXPECT_EQ(routed.shed_lookups, 0u);  // replication 2 survives these
  // Surviving replicas absorb the dead channel's lookups in extra rounds:
  // availability is preserved at the price of a longer lookup.
  EXPECT_GT(router.DegradedLookupLatency(model_.lookups_per_table,
                                         platform_, 0.0),
            plan_.lookup_latency_ns);
}

TEST_F(FailoverTest, ZeroSurvivorsShedsAndReports) {
  // Kill every replica of table 0: its lookups must be shed and reported.
  std::vector<std::uint32_t> victims(plan_.tables[0].banks);
  const FaultSchedule schedule = FaultSchedule::FailChannels(victims);
  const FailoverRouter router(&plan_, &schedule);
  const auto routed = router.Route(model_.lookups_per_table, 0.0);
  EXPECT_FALSE(routed.fully_servable());
  EXPECT_GE(routed.unservable_tables, 1u);
  EXPECT_GE(routed.shed_lookups, model_.lookups_per_table);
  const std::uint64_t total = static_cast<std::uint64_t>(
      plan_.tables.size() * model_.lookups_per_table);
  EXPECT_EQ(routed.accesses.size() + routed.shed_lookups, total);
}

TEST_F(FailoverTest, RecoveryRestoresHealthyRouting) {
  FaultSchedule schedule;
  ASSERT_TRUE(schedule
                  .Add(Event(FaultKind::kChannelFail, 0.0, 1000.0,
                             plan_.tables[0].banks[0]))
                  .ok());
  const FailoverRouter router(&plan_, &schedule);
  const auto expected = plan_.ToBankAccesses(model_.lookups_per_table);

  const auto during = router.Route(model_.lookups_per_table, 500.0);
  bool any_moved = false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    any_moved = any_moved || during.accesses[i].bank != expected[i].bank;
  }
  EXPECT_TRUE(any_moved);

  const auto after = router.Route(model_.lookups_per_table, 1000.0);
  ASSERT_EQ(after.accesses.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after.accesses[i].bank, expected[i].bank);
  }
}

// ---------------------------------------------------------------- Retry

TEST(RetryPolicyTest, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 10.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ns = 35.0;
  ASSERT_TRUE(policy.Validate().ok());
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(3), 35.0);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(4), 35.0);
}

TEST(RetryPolicyTest, ValidateRejectsDegenerateValues) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.attempt_timeout_ns = 0.0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.backoff_multiplier = 0.5;
  EXPECT_FALSE(policy.Validate().ok());
}

// ------------------------------------------------------------ Fault sweep

class FaultSweepTest : public ::testing::Test {
 protected:
  static MicroRecEngine Engine() {
    EngineOptions options;
    options.materialize = false;
    return MicroRecEngine::Build(DlrmRmc2Model(8, 32), options).value();
  }

  static std::vector<sched::FaultSweepPoint> Sweep(
      const std::vector<Nanoseconds>& arrivals) {
    return sched::RunFaultSweep(Engine(), arrivals, /*max_failed=*/2,
                                /*threads=*/1)
        .value();
  }

  static const sched::FaultSweepPoint& At(
      const std::vector<sched::FaultSweepPoint>& points,
      std::uint32_t replication, std::uint64_t failed) {
    for (const auto& point : points) {
      if (point.replication == replication &&
          point.failed_channels == failed) {
        return point;
      }
    }
    ADD_FAILURE() << "no point (" << replication << ", " << failed << ")";
    return points.front();
  }
};

TEST_F(FaultSweepTest, ZeroFailurePointsEqualAPlainPool) {
  const auto arrivals = PoissonArrivals(150'000.0, 3'000, 13);
  const MicroRecEngine engine = Engine();
  const auto points = Sweep(arrivals);
  std::size_t zero_failure_points = 0;
  for (const auto& point : points) {
    if (point.failed_channels != 0) continue;
    ++zero_failure_points;
    sched::PipelineBackendConfig pool;
    pool.item_latency_ns = point.item_latency_ns;
    pool.initiation_interval_ns = engine.timing().initiation_interval_ns;
    const ServingReport baseline =
        sched::ServeOnBackend(arrivals,
                              std::make_unique<sched::PipelineBackend>(pool),
                              sched::kFaultSweepSlaNs)
            .serving;
    EXPECT_EQ(point.availability, 1.0);
    EXPECT_EQ(point.serving.p50, baseline.p50);
    EXPECT_EQ(point.serving.p95, baseline.p95);
    EXPECT_EQ(point.serving.p99, baseline.p99);
    EXPECT_EQ(point.serving.max, baseline.max);
    EXPECT_EQ(point.serving.mean, baseline.mean);
    EXPECT_EQ(point.serving.achieved_qps, baseline.achieved_qps);
    EXPECT_EQ(point.serving.sla_violation_rate, baseline.sla_violation_rate);
  }
  EXPECT_EQ(zero_failure_points, 3u);  // replication 1, 2 and 4
}

TEST_F(FaultSweepTest, UnservablePointShedsEveryQuery) {
  // At replication 1 a failed channel takes whole tables with it, and
  // every query touches every table.
  const auto points = Sweep(PoissonArrivals(150'000.0, 500, 3));
  const auto& point = At(points, 1, 1);
  EXPECT_EQ(point.availability, 0.0);
  EXPECT_EQ(point.serving.max, 0.0);
  EXPECT_TRUE(point.slo.alerted);
}

TEST_F(FaultSweepTest, ReplicasReRouteAFailedChannelInsteadOfShedding) {
  const auto points = Sweep(PoissonArrivals(150'000.0, 2'000, 7));
  const auto& healthy = At(points, 2, 0);
  const auto& failed = At(points, 2, 1);
  EXPECT_EQ(failed.availability, 1.0);
  EXPECT_GT(failed.serving.p99, healthy.serving.p99);  // extra rounds
}

TEST_F(FaultSweepTest, RejectsDegenerateInputs) {
  const MicroRecEngine engine = Engine();
  EXPECT_FALSE(sched::RunFaultSweep(engine, {}, 2, 1).ok());
  EXPECT_FALSE(sched::RunFaultSweep(engine, {10.0, 5.0}, 2, 1).ok());
  EXPECT_TRUE(sched::RunFaultSweep(engine, {0.0}, 2, 1).ok());
}

}  // namespace
}  // namespace microrec
