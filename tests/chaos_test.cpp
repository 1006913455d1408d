// Tests for the fault-tolerance stack: circuit breakers (sched/health),
// the backend fault model (sched/fault_model), the fault-tolerant
// event-loop scheduler (sched/ft_scheduler), recovery metrics
// (obs/recovery), and the chaos sweep (sched/chaos) plus its CLI command.
//
// The load-bearing gates:
//   * with every feature disabled the fault-tolerant scheduler replays a
//     plain route-at-arrival reference loop bit for bit (the layer costs
//     nothing off),
//   * the never-drop invariant: every offered query ends served, shed, or
//     timed out -- exactly one of them,
//   * hedge determinism: the same seed yields the identical report,
//   * the chaos sweep is byte-identical at any thread count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "cli/commands.hpp"
#include "faults/fault_schedule.hpp"
#include "obs/event_log.hpp"
#include "obs/explain.hpp"
#include "obs/recovery.hpp"
#include "sched/backends.hpp"
#include "sched/chaos.hpp"
#include "sched/fault_model.hpp"
#include "sched/fleet.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/health.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "serving/serving_sim.hpp"

namespace microrec {
namespace {

// ---- Shared helpers -------------------------------------------------------

std::unique_ptr<sched::Backend> MakePipeline(const std::string& name,
                                             Nanoseconds item_latency_ns,
                                             Nanoseconds ii_ns) {
  sched::PipelineBackendConfig config;
  config.name = name;
  config.replicas = 1;
  config.item_latency_ns = item_latency_ns;
  config.initiation_interval_ns = ii_ns;
  return std::make_unique<sched::PipelineBackend>(config);
}

FaultSchedule OneEvent(FaultKind kind, Nanoseconds start, Nanoseconds end,
                       std::uint32_t target, double magnitude = 1.0) {
  FaultEvent event;
  event.kind = kind;
  event.start_ns = start;
  event.end_ns = end;
  event.target = target;
  event.magnitude = magnitude;
  FaultSchedule schedule;
  EXPECT_TRUE(schedule.Add(event).ok());
  return schedule;
}

std::vector<sched::SchedCompletion> RunThrough(
    sched::Backend& backend, const std::vector<sched::SchedQuery>& queries) {
  for (const sched::SchedQuery& q : queries) {
    EXPECT_TRUE(backend.Admit(q));
  }
  std::vector<sched::SchedCompletion> out;
  backend.Finalize(out);
  return out;
}

/// Plain reference for the event loop with its whole layer off: route each
/// query at its arrival, admit it unconditionally (a rejected admit is a
/// shed), and feed completions back to the policy in (completion, id)
/// order, then report with the shared summarizer and SLO evaluation.
sched::SchedReport RouteAtArrivalReference(
    const std::vector<sched::SchedQuery>& queries,
    std::vector<std::unique_ptr<sched::Backend>>& fleet,
    sched::SchedulingPolicy& policy, const sched::SchedOptions& options) {
  sched::SchedReport report;
  report.policy = std::string(policy.name());
  for (const auto& backend : fleet) {
    report.usage.push_back({std::string(backend->name()), 0, 0});
  }
  std::vector<bool> served(queries.size(), false);
  std::vector<Nanoseconds> completion(queries.size(), 0.0);
  std::vector<sched::SchedCompletion> step;
  const auto deliver = [&] {
    std::sort(step.begin(), step.end(), [](const auto& a, const auto& b) {
      return a.completion_ns != b.completion_ns
                 ? a.completion_ns < b.completion_ns
                 : a.query_id < b.query_id;
    });
    for (const sched::SchedCompletion& c : step) {
      served[c.query_id] = true;
      completion[c.query_id] = c.completion_ns;
      const Nanoseconds arrival = queries[c.query_id].arrival_ns;
      policy.OnOutcome({arrival, c.completion_ns - arrival, true});
    }
    step.clear();
  };
  for (const sched::SchedQuery& q : queries) {
    for (auto& backend : fleet) backend->Drain(q.arrival_ns, step);
    deliver();
    const std::size_t pick = policy.Route(q, fleet);
    if (fleet[pick]->Admit(q)) {
      ++report.usage[pick].queries;
      report.usage[pick].items += q.items;
    } else {
      policy.OnOutcome({q.arrival_ns, 0.0, false});
    }
  }
  for (auto& backend : fleet) backend->Finalize(step);
  deliver();

  std::vector<Nanoseconds> served_arrivals;
  std::vector<Nanoseconds> served_completions;
  std::vector<obs::QueryOutcome> outcomes;
  for (const sched::SchedQuery& q : queries) {
    obs::QueryOutcome outcome;
    outcome.arrival_ns = q.arrival_ns;
    outcome.served = served[q.id];
    if (outcome.served) {
      outcome.latency_ns = completion[q.id] - q.arrival_ns;
      served_arrivals.push_back(q.arrival_ns);
      served_completions.push_back(completion[q.id]);
    }
    outcomes.push_back(outcome);
  }
  report.offered = queries.size();
  report.served = served_arrivals.size();
  report.shed = report.offered - report.served;
  report.availability = static_cast<double>(report.served) /
                        static_cast<double>(report.offered);
  if (!served_arrivals.empty()) {
    report.serving =
        SummarizeServing(served_arrivals, served_completions, options.sla_ns);
  }
  const Nanoseconds span =
      queries.back().arrival_ns - queries.front().arrival_ns;
  report.slo = obs::EvaluateSlo(
      obs::SloSpec::Default(options.sla_ns, options.slo_objective,
                            span > 0.0 ? span : 1.0),
      outcomes);
  return report;
}

void ExpectSameBaseReport(const sched::SchedReport& a,
                          const sched::SchedReport& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.serving.p50, b.serving.p50);
  EXPECT_EQ(a.serving.p95, b.serving.p95);
  EXPECT_EQ(a.serving.p99, b.serving.p99);
  EXPECT_EQ(a.serving.max, b.serving.max);
  EXPECT_EQ(a.serving.mean, b.serving.mean);
  EXPECT_EQ(a.slo.bad_fraction, b.slo.bad_fraction);
  ASSERT_EQ(a.usage.size(), b.usage.size());
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    EXPECT_EQ(a.usage[i].queries, b.usage[i].queries);
    EXPECT_EQ(a.usage[i].items, b.usage[i].items);
  }
}

// ---- Circuit breaker ------------------------------------------------------

sched::CircuitBreakerConfig SmallBreaker() {
  sched::CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown_ns = 100.0;
  config.cooldown_backoff = 2.0;
  config.max_cooldown_ns = 400.0;
  config.half_open_probes = 2;
  config.close_threshold = 2;
  return config;
}

TEST(CircuitBreakerTest, ClosedToOpenToHalfOpenToClosed) {
  sched::CircuitBreaker breaker(SmallBreaker());
  EXPECT_EQ(breaker.state(), sched::BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(0.0));

  breaker.OnFailure(10.0);
  EXPECT_EQ(breaker.state(), sched::BreakerState::kClosed);
  breaker.OnFailure(20.0);
  EXPECT_EQ(breaker.state(), sched::BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_EQ(breaker.reopen_at_ns(), 120.0);
  EXPECT_FALSE(breaker.Allow(119.0));

  // Cool-down elapsed: half-open, with half_open_probes trial slots.
  EXPECT_TRUE(breaker.Allow(120.0));
  EXPECT_EQ(breaker.state(), sched::BreakerState::kHalfOpen);
  breaker.OnDispatch(120.0);
  EXPECT_TRUE(breaker.Allow(121.0));
  breaker.OnDispatch(121.0);
  EXPECT_FALSE(breaker.Allow(122.0));  // trial slots exhausted
  EXPECT_EQ(breaker.half_open_dispatches(), 2u);

  // close_threshold trial successes close it again.
  breaker.OnSuccess(130.0);
  EXPECT_EQ(breaker.state(), sched::BreakerState::kHalfOpen);
  breaker.OnSuccess(131.0);
  EXPECT_EQ(breaker.state(), sched::BreakerState::kClosed);
  EXPECT_EQ(breaker.closes(), 1u);
  EXPECT_EQ(breaker.half_open_successes(), 2u);

  // Recovery reset the cool-down backoff to the base value.
  breaker.OnFailure(200.0);
  breaker.OnFailure(201.0);
  EXPECT_EQ(breaker.state(), sched::BreakerState::kOpen);
  EXPECT_EQ(breaker.reopen_at_ns(), 301.0);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensWithBackedOffCooldown) {
  sched::CircuitBreaker breaker(SmallBreaker());
  breaker.OnFailure(0.0);
  breaker.OnFailure(0.0);
  EXPECT_EQ(breaker.reopen_at_ns(), 100.0);

  // First trial failure: cool-down doubles.
  EXPECT_TRUE(breaker.Allow(100.0));
  breaker.OnDispatch(100.0);
  breaker.OnFailure(110.0);
  EXPECT_EQ(breaker.state(), sched::BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_EQ(breaker.half_open_failures(), 1u);
  EXPECT_EQ(breaker.reopen_at_ns(), 310.0);  // 110 + 2 * 100

  // Second trial failure: doubled again, now at the cap.
  EXPECT_TRUE(breaker.Allow(310.0));
  breaker.OnFailure(320.0);
  EXPECT_EQ(breaker.reopen_at_ns(), 720.0);  // 320 + 400 (capped)

  // Capped: no further growth.
  EXPECT_TRUE(breaker.Allow(720.0));
  breaker.OnFailure(730.0);
  EXPECT_EQ(breaker.reopen_at_ns(), 1130.0);  // 730 + 400
}

TEST(CircuitBreakerTest, StragglerSuccessWhileOpenIsIgnored) {
  sched::CircuitBreaker breaker(SmallBreaker());
  breaker.OnFailure(0.0);
  breaker.OnFailure(0.0);
  ASSERT_EQ(breaker.state(), sched::BreakerState::kOpen);
  // A completion from before the trip must not close the breaker early.
  breaker.OnSuccess(50.0);
  EXPECT_EQ(breaker.state(), sched::BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow(50.0));
  EXPECT_EQ(breaker.closes(), 0u);
}

// ---- Backend fault model --------------------------------------------------

TEST(BackendFaultModelTest, EmptyScheduleIsBitExactPassthrough) {
  auto plain = MakePipeline("p", 50.0, 10.0);
  sched::FaultInjectedBackend wrapped(MakePipeline("p", 50.0, 10.0),
                                      sched::BackendFaultModel());
  EXPECT_TRUE(wrapped.model().empty());
  EXPECT_TRUE(wrapped.Accepting(123.0));
  EXPECT_EQ(wrapped.QueueDepthNs(0.0), plain->QueueDepthNs(0.0));

  const auto queries = sched::SingleItemQueries({0.0, 10.0, 20.0});
  const auto expected = RunThrough(*plain, queries);
  const auto got = RunThrough(wrapped, queries);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].query_id, expected[i].query_id);
    EXPECT_EQ(got[i].completion_ns, expected[i].completion_ns);
  }
  EXPECT_EQ(wrapped.crash_rejects(), 0u);
}

TEST(BackendFaultModelTest, CrashWindowRejectsAdmitsAndCounts) {
  sched::FaultInjectedBackend wrapped(
      MakePipeline("p", 50.0, 10.0),
      sched::BackendFaultModel(
          OneEvent(FaultKind::kReplicaCrash, 100.0, 200.0, /*target=*/3), 3));
  EXPECT_TRUE(wrapped.Accepting(99.0));
  EXPECT_FALSE(wrapped.Accepting(150.0));
  EXPECT_TRUE(wrapped.Accepting(200.0));  // closed-open window

  sched::SchedQuery inside;
  inside.id = 0;
  inside.arrival_ns = 150.0;
  EXPECT_FALSE(wrapped.Admit(inside));
  EXPECT_EQ(wrapped.crash_rejects(), 1u);

  sched::SchedQuery after;
  after.id = 1;
  after.arrival_ns = 250.0;
  EXPECT_TRUE(wrapped.Admit(after));
  std::vector<sched::SchedCompletion> out;
  wrapped.Finalize(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query_id, 1u);
  EXPECT_EQ(out[0].completion_ns, 300.0);
}

TEST(BackendFaultModelTest, BrownoutScalesResidenceTimeFromAdmit) {
  sched::FaultInjectedBackend wrapped(
      MakePipeline("p", 50.0, 10.0),
      sched::BackendFaultModel(
          OneEvent(FaultKind::kChannelDegrade, 0.0, 1000.0, /*target=*/0,
                   /*magnitude=*/3.0),
          0));
  // Admitted inside the window: completion = admit + 3 x healthy residence.
  // Admitted after it: untouched.
  const auto out = RunThrough(wrapped, sched::SingleItemQueries({0.0, 2000.0}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].completion_ns, 150.0);   // 0 + (50 - 0) * 3
  EXPECT_EQ(out[1].completion_ns, 2050.0);  // healthy
  // The queue-depth probe scales too, so policies see the slowdown.
  auto probe_ref = MakePipeline("p", 50.0, 10.0);
  EXPECT_GE(wrapped.QueueDepthNs(500.0), probe_ref->QueueDepthNs(500.0));
}

/// Runs `queries` through a healthy backend and its browned-out twin (a
/// kChannelDegrade window of `magnitude` over [0, window_end)), and checks
/// each query the window covers against admit + (healthy - admit) x
/// magnitude, and every other query against its healthy completion. The
/// wrapper reads the admit anchor from the completions the inner backend
/// emits, so this holds for batched and cached backends alike.
void ExpectBrownoutScalesFromAdmit(std::unique_ptr<sched::Backend> healthy,
                                   std::unique_ptr<sched::Backend> inner,
                                   const std::vector<sched::SchedQuery>& queries,
                                   Nanoseconds window_end, double magnitude) {
  sched::FaultInjectedBackend wrapped(
      std::move(inner),
      sched::BackendFaultModel(OneEvent(FaultKind::kChannelDegrade, 0.0,
                                        window_end, /*target=*/0, magnitude),
                               0));
  const auto plain = RunThrough(*healthy, queries);
  const auto browned = RunThrough(wrapped, queries);
  ASSERT_EQ(plain.size(), queries.size());
  ASSERT_EQ(browned.size(), queries.size());
  std::vector<Nanoseconds> healthy_done(queries.size());
  for (const sched::SchedCompletion& c : plain) {
    EXPECT_EQ(c.admit_ns, queries[c.query_id].arrival_ns);
    healthy_done[c.query_id] = c.completion_ns;
  }
  std::size_t scaled = 0;
  for (std::size_t i = 0; i < browned.size(); ++i) {
    const sched::SchedCompletion& c = browned[i];
    const Nanoseconds admit = queries[c.query_id].arrival_ns;
    const Nanoseconds healthy_ns = healthy_done[c.query_id];
    EXPECT_EQ(c.admit_ns, admit) << "query " << c.query_id;
    if (admit < window_end) {
      ++scaled;
      EXPECT_EQ(c.completion_ns, admit + (healthy_ns - admit) * magnitude)
          << "query " << c.query_id;
    } else {
      EXPECT_EQ(c.completion_ns, healthy_ns) << "query " << c.query_id;
    }
    if (i > 0) {  // re-sorted after scaling
      const sched::SchedCompletion& prev = browned[i - 1];
      EXPECT_TRUE(prev.completion_ns < c.completion_ns ||
                  (prev.completion_ns == c.completion_ns &&
                   prev.query_id < c.query_id));
    }
  }
  EXPECT_GT(scaled, 0u);
  EXPECT_LT(scaled, queries.size());
}

TEST(BackendFaultModelTest, BrownoutOverBatchedCpuScalesFromAdmit) {
  // Two servers with 8-unit batches and 1-13-item queries: most queries
  // straddle batches, so each completes with its last unit's batch.
  sched::CpuBackendConfig config;
  config.servers = 2;
  config.max_batch = 8;
  config.batch_timeout_ns = 2'000.0;
  config.fixed_overhead_ns = 5'000.0;
  config.per_item_ns = 300.0;
  config.per_lookup_ns = 20.0;
  config.lookups_per_item = 4;
  std::vector<sched::SchedQuery> queries;
  for (std::uint64_t i = 0; i < 60; ++i) {
    queries.push_back({i, static_cast<double>(i) * 1'500.0, 1 + i * 7 % 13, 4});
  }
  ExpectBrownoutScalesFromAdmit(
      std::make_unique<sched::CpuBatchedBackend>(config),
      std::make_unique<sched::CpuBatchedBackend>(config), queries,
      /*window_end=*/45'000.0, /*magnitude=*/2.5);
}

TEST(BackendFaultModelTest, BrownoutOverHotCacheScalesFromAdmit) {
  sched::HotCacheBackendConfig config;
  config.hit_item_latency_ns = 1'000.0;
  config.miss_item_latency_ns = 6'000.0;
  config.initiation_interval_ns = 400.0;
  config.cache_capacity_bytes = 64 * 64;
  config.key_space = 512;
  config.seed = 5;
  std::vector<sched::SchedQuery> queries;
  for (std::uint64_t i = 0; i < 80; ++i) {
    queries.push_back({i, static_cast<double>(i) * 900.0, 1 + i % 5, 1});
  }
  ExpectBrownoutScalesFromAdmit(
      std::make_unique<sched::HotCacheBackend>(config),
      std::make_unique<sched::HotCacheBackend>(config), queries,
      /*window_end=*/40'000.0, /*magnitude=*/3.0);
}

TEST(BackendFaultModelTest, StallDefersCompletionsToWindowEnd) {
  sched::FaultInjectedBackend wrapped(
      MakePipeline("p", 50.0, 10.0),
      sched::BackendFaultModel(
          OneEvent(FaultKind::kDmaStall, 0.0, 500.0, /*target=*/0), 0));
  const auto out = RunThrough(wrapped, sched::SingleItemQueries({0.0, 600.0}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].completion_ns, 500.0);  // 50 deferred to stall end
  EXPECT_EQ(out[1].completion_ns, 650.0);  // after the window: healthy
}

TEST(BackendFaultModelTest, StallEndIsTargetKeyed) {
  const FaultSchedule schedule =
      OneEvent(FaultKind::kDmaStall, 100.0, 200.0, /*target=*/2);
  EXPECT_EQ(schedule.StallEnd(2, 150.0), 200.0);
  EXPECT_EQ(schedule.StallEnd(1, 150.0), 150.0);  // other unit: live
  EXPECT_EQ(schedule.StallEnd(2, 200.0), 200.0);  // closed-open window
}

// ---- Fault-tolerant scheduler --------------------------------------------

sched::LoadGenConfig SmallChaosLoad() {
  sched::LoadGenConfig load;
  load.process = sched::ArrivalProcess::kPoisson;
  load.rate_qps = 500'000.0;
  load.num_queries = 3000;
  load.seed = 42;
  load.sizes = {/*small_items=*/1, /*large_items=*/64,
                /*large_fraction=*/0.1, /*lookups_per_item=*/8};
  return load;
}

sched::FleetConfig SmallFleetConfig() {
  sched::FleetConfig config;
  config.seed = 42;
  config.horizon_ns = Milliseconds(6);
  config.lookups_per_item = 8;
  return config;
}

TEST(FtSchedulerTest, DisabledLayerMatchesBaseSchedulerBitForBit) {
  const auto stream = sched::GenerateLoad(SmallChaosLoad());
  sched::SchedOptions base_options;
  base_options.sla_ns = Milliseconds(2);
  base_options.slo_objective = 0.99;

  auto base_fleet = sched::BuildStandardFleet(SmallFleetConfig());
  auto base_policy = sched::MakeQueueDepthPolicy();
  const sched::SchedReport base = RouteAtArrivalReference(
      stream, base_fleet, *base_policy, base_options);

  // Unwrapped fleet, every fault-tolerance feature off.
  auto ft_fleet = sched::BuildStandardFleet(SmallFleetConfig());
  auto ft_policy = sched::MakeQueueDepthPolicy();
  sched::FtOptions ft_options;
  ft_options.base = base_options;
  const sched::FtSchedReport ft =
      sched::SimulateFaultTolerantServing(stream, ft_fleet, *ft_policy,
                                          ft_options);
  ExpectSameBaseReport(ft.base, base);
  EXPECT_EQ(ft.timed_out, 0u);
  EXPECT_EQ(ft.retries, 0u);
  EXPECT_EQ(ft.hedges, 0u);
  EXPECT_EQ(ft.cancelled_completions, 0u);
  EXPECT_EQ(ft.breaker_opens, 0u);

  // Fleet wrapped with empty schedules: the wrappers are passthrough, so
  // the report is still bit-identical (the acceptance gate for "the fault
  // layer costs nothing when off").
  auto wrapped_fleet = sched::WrapFleetWithFaults(
      sched::BuildStandardFleet(SmallFleetConfig()),
      std::vector<FaultSchedule>(sched::kFleetSize));
  auto wrapped_policy = sched::MakeQueueDepthPolicy();
  const sched::FtSchedReport wrapped = sched::SimulateFaultTolerantServing(
      stream, wrapped_fleet, *wrapped_policy, ft_options);
  ExpectSameBaseReport(wrapped.base, base);
}

TEST(FtSchedulerTest, RetryReroutesToUntriedBackendAfterTimeout) {
  // Backend a browns out 50x for the whole run; b stays healthy. Every
  // original admission (static:a) times out and re-admits to b.
  std::vector<std::unique_ptr<sched::Backend>> fleet;
  fleet.push_back(MakePipeline("a", Microseconds(20), 300.0));
  fleet.push_back(MakePipeline("b", Microseconds(40), 300.0));
  std::vector<FaultSchedule> schedules(2);
  schedules[0] = OneEvent(FaultKind::kChannelDegrade, 0.0, Milliseconds(10),
                          /*target=*/0, /*magnitude=*/50.0);
  auto wrapped = sched::WrapFleetWithFaults(std::move(fleet), schedules);

  std::vector<Nanoseconds> arrivals;
  for (int i = 0; i < 10; ++i) arrivals.push_back(i * Microseconds(50));
  const auto queries = sched::SingleItemQueries(arrivals);

  auto policy = sched::MakeStaticPolicy(0, "static:a");
  sched::FtOptions options;
  options.base.sla_ns = Microseconds(200);
  options.retries_enabled = true;
  options.retry.max_attempts = 3;
  options.retry.attempt_timeout_ns = Microseconds(100);
  options.retry.initial_backoff_ns = Microseconds(10);
  const sched::FtSchedReport report =
      sched::SimulateFaultTolerantServing(queries, wrapped, *policy, options);

  EXPECT_EQ(report.base.served, 10u);
  EXPECT_EQ(report.base.shed, 0u);
  EXPECT_EQ(report.timed_out, 0u);
  EXPECT_EQ(report.retries, 10u);
  // a's browned-out completions (admit + 1 ms) land after each query was
  // already served off b and are accounted as cancelled.
  EXPECT_EQ(report.cancelled_completions, 10u);
  EXPECT_EQ(report.base.usage[0].queries, 10u);  // originals
  EXPECT_EQ(report.base.usage[1].queries, 10u);  // retries
  // Served latency = timeout (100us) + backoff (10us) + b's 40us.
  EXPECT_EQ(report.base.serving.max, Microseconds(150));
}

TEST(FtSchedulerTest, DeadlineTimesOutStuckQueriesExactlyOnce) {
  std::vector<std::unique_ptr<sched::Backend>> fleet;
  fleet.push_back(MakePipeline("a", Microseconds(20), 300.0));
  std::vector<FaultSchedule> schedules(1);
  schedules[0] = OneEvent(FaultKind::kChannelDegrade, 0.0, Milliseconds(100),
                          /*target=*/0, /*magnitude=*/100.0);
  auto wrapped = sched::WrapFleetWithFaults(std::move(fleet), schedules);

  std::vector<Nanoseconds> arrivals;
  for (int i = 0; i < 10; ++i) arrivals.push_back(i * Microseconds(50));
  const auto queries = sched::SingleItemQueries(arrivals);

  auto policy = sched::MakeStaticPolicy(0, "static:a");
  sched::FtOptions options;
  options.base.sla_ns = Microseconds(200);
  options.deadline_ns = Microseconds(200);  // every completion takes 2 ms
  const sched::FtSchedReport report =
      sched::SimulateFaultTolerantServing(queries, wrapped, *policy, options);

  EXPECT_EQ(report.base.served, 0u);
  EXPECT_EQ(report.base.shed, 10u);
  EXPECT_EQ(report.timed_out, 10u);
  EXPECT_EQ(report.base.availability, 0.0);
  // Each stuck completion eventually arrived and was cancelled.
  EXPECT_EQ(report.cancelled_completions, 10u);
}

TEST(FtSchedulerTest, OriginalWinsTimeTieAgainstHeapEvents) {
  // Query 0's attempt on the slow backend times out at exactly query 1's
  // arrival. Originals come from the stream and the timeout from the
  // event heap; at equal times the original goes first, as it did when
  // every original held a lower sequence number than any scheduled event.
  std::vector<std::unique_ptr<sched::Backend>> fleet;
  fleet.push_back(MakePipeline("slow", Milliseconds(1), 300.0));
  fleet.push_back(MakePipeline("fast", Microseconds(10), 300.0));
  const auto queries =
      sched::SingleItemQueries({0.0, Microseconds(100), Microseconds(300)});

  auto policy = sched::MakeStaticPolicy(0, "static:slow");
  obs::EventLog log;
  sched::FtOptions options;
  options.base.sla_ns = Milliseconds(2);
  options.retries_enabled = true;
  options.retry.max_attempts = 2;
  options.retry.attempt_timeout_ns = Microseconds(100);
  options.retry.initial_backoff_ns = Microseconds(10);
  options.event_log = &log;
  const sched::FtSchedReport report =
      sched::SimulateFaultTolerantServing(queries, fleet, *policy, options);
  EXPECT_EQ(report.base.served, 3u);
  EXPECT_EQ(report.retries, 3u);

  const auto index_of = [&](obs::SchedEventKind kind, std::uint64_t query) {
    const auto& events = log.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == kind && events[i].query == query) return i;
    }
    ADD_FAILURE() << obs::SchedEventKindName(kind) << " of query " << query
                  << " not recorded";
    return events.size();
  };
  const std::size_t route = index_of(obs::SchedEventKind::kRoute, 1);
  const std::size_t timeout = index_of(obs::SchedEventKind::kAttemptTimeout, 0);
  ASSERT_LT(route, log.events().size());
  ASSERT_LT(timeout, log.events().size());
  EXPECT_EQ(log.events()[route].time_ns, log.events()[timeout].time_ns);
  EXPECT_LT(route, timeout);
}

TEST(FtSchedulerTest, AllBreakersOpenShedsLargeAndForceAdmitsSmall) {
  // Both backends crash over [20us, 50us); probes trip both breakers open
  // mid-window, and the 1 ms cool-down holds them open long after the
  // crash lifts. Small (high-priority) queries then force-admit to the
  // healthy-again hardware; large ones shed at the breaker.
  std::vector<std::unique_ptr<sched::Backend>> fleet;
  fleet.push_back(MakePipeline("a", Microseconds(10), 300.0));
  fleet.push_back(MakePipeline("b", Microseconds(10), 300.0));
  std::vector<FaultSchedule> schedules(2);
  schedules[0] = OneEvent(FaultKind::kReplicaCrash, Microseconds(20),
                          Microseconds(50), /*target=*/0);
  schedules[1] = OneEvent(FaultKind::kReplicaCrash, Microseconds(20),
                          Microseconds(50), /*target=*/1);
  auto wrapped = sched::WrapFleetWithFaults(std::move(fleet), schedules);

  std::vector<sched::SchedQuery> queries;
  for (std::uint64_t i = 0; i <= 50; ++i) {
    sched::SchedQuery q;
    q.id = i;
    q.arrival_ns = i * Microseconds(2);
    q.items = (i % 2 == 0) ? 1 : 64;
    q.lookups_per_item = 1;
    queries.push_back(q);
  }

  auto policy = sched::MakeStaticPolicy(0, "static:a");
  sched::FtOptions options;
  options.base.sla_ns = Microseconds(500);
  options.breakers_enabled = true;
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_ns = Milliseconds(1);
  options.probe_interval_ns = Microseconds(5);
  options.high_priority_max_items = 1;
  const sched::FtSchedReport report =
      sched::SimulateFaultTolerantServing(queries, wrapped, *policy, options);

  EXPECT_EQ(report.breaker_opens, 2u);
  EXPECT_GT(report.probes_failed, 0u);
  EXPECT_GT(report.forced_admits, 0u);  // small queries after the crash
  EXPECT_GT(report.breaker_sheds, 0u);  // large queries, all breakers open
  EXPECT_GT(report.base.served, 0u);
  EXPECT_EQ(report.base.served + report.base.shed, report.base.offered);
}

TEST(FtSchedulerTest, NeverDropInvariantUnderFullChaos) {
  sched::ChaosSweepConfig config;
  config.queries = 4000;
  const Nanoseconds span =
      static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
  const sched::ChaosScenario scenario =
      sched::BuildChaosScenario(1.0, config.fault_seed, span);

  sched::LoadGenConfig load = SmallChaosLoad();
  load.num_queries = config.queries;
  const auto stream = sched::GenerateLoad(load);

  sched::FleetConfig fleet_config = SmallFleetConfig();
  fleet_config.horizon_ns = span;
  auto fleet = sched::WrapFleetWithFaults(
      sched::BuildStandardFleet(fleet_config), scenario.schedules);
  auto policy = sched::MakeQueueDepthPolicy();
  std::vector<obs::QueryOutcome> outcomes;
  sched::FtOptions options = sched::ChaosFtOptions(config, /*hedge=*/true);
  options.outcomes = &outcomes;
  const sched::FtSchedReport report =
      sched::SimulateFaultTolerantServing(stream, fleet, *policy, options);

  // Exactly one terminal outcome per offered query, in arrival order.
  ASSERT_EQ(outcomes.size(), stream.size());
  std::uint64_t served = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].arrival_ns, stream[i].arrival_ns);
    if (outcomes[i].served) ++served;
  }
  EXPECT_EQ(served, report.base.served);
  EXPECT_EQ(report.base.served + report.base.shed, report.base.offered);
  EXPECT_LE(report.timed_out, report.base.shed);
  // Hedge accounting: every win names an arrival, wins never exceed
  // dispatched hedges.
  EXPECT_EQ(report.hedge_wins, report.hedge_win_arrival_ns.size());
  EXPECT_LE(report.hedge_wins, report.hedges);
}

TEST(FtSchedulerTest, HedgedRunIsDeterministic) {
  sched::ChaosSweepConfig config;
  config.queries = 4000;
  const Nanoseconds span =
      static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
  const sched::ChaosScenario scenario =
      sched::BuildChaosScenario(1.0, config.fault_seed, span);
  sched::LoadGenConfig load = SmallChaosLoad();
  load.num_queries = config.queries;
  const auto stream = sched::GenerateLoad(load);

  const auto run = [&]() {
    sched::FleetConfig fleet_config = SmallFleetConfig();
    fleet_config.horizon_ns = span;
    auto fleet = sched::WrapFleetWithFaults(
        sched::BuildStandardFleet(fleet_config), scenario.schedules);
    auto policy = sched::MakeQueueDepthPolicy();
    return sched::SimulateFaultTolerantServing(
        stream, fleet, *policy, sched::ChaosFtOptions(config, /*hedge=*/true));
  };
  const sched::FtSchedReport first = run();
  const sched::FtSchedReport second = run();

  EXPECT_GT(first.hedges, 0u);
  ExpectSameBaseReport(first.base, second.base);
  EXPECT_EQ(first.timed_out, second.timed_out);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.hedges, second.hedges);
  EXPECT_EQ(first.hedge_wins, second.hedge_wins);
  EXPECT_EQ(first.cancelled_completions, second.cancelled_completions);
  EXPECT_EQ(first.breaker_opens, second.breaker_opens);
  ASSERT_EQ(first.hedge_win_arrival_ns.size(),
            second.hedge_win_arrival_ns.size());
  for (std::size_t i = 0; i < first.hedge_win_arrival_ns.size(); ++i) {
    EXPECT_EQ(first.hedge_win_arrival_ns[i], second.hedge_win_arrival_ns[i]);
  }
}

// ---- Recovery metrics -----------------------------------------------------

obs::RecoveryOptions SmallRecoveryOptions() {
  obs::RecoveryOptions options;
  options.sla_ns = 100.0;
  options.objective = 0.8;
  options.recovery_window_ns = 500.0;
  options.min_window_count = 10;
  return options;
}

/// 1000 served outcomes at 10 ns spacing; arrivals in [bad_start,
/// bad_end) exceed the SLA, the rest are comfortably inside it.
std::vector<obs::QueryOutcome> SyntheticOutcomes(Nanoseconds bad_start,
                                                 Nanoseconds bad_end) {
  std::vector<obs::QueryOutcome> outcomes;
  for (int i = 0; i < 1000; ++i) {
    obs::QueryOutcome o;
    o.arrival_ns = i * 10.0;
    o.served = true;
    const bool bad = o.arrival_ns >= bad_start && o.arrival_ns < bad_end;
    o.latency_ns = bad ? 200.0 : 50.0;
    outcomes.push_back(o);
  }
  return outcomes;
}

TEST(RecoveryTest, WindowMetricsAndTimeToRecover) {
  const auto outcomes = SyntheticOutcomes(3000.0, 5000.0);
  const std::vector<obs::FaultWindow> windows = {{"w", 3000.0, 5000.0}};
  const obs::RecoveryReport report =
      obs::EvaluateRecovery(SmallRecoveryOptions(), outcomes, windows);

  ASSERT_EQ(report.windows.size(), 1u);
  const obs::WindowRecovery& w = report.windows[0];
  EXPECT_EQ(w.offered_during, 200u);
  EXPECT_EQ(w.good_during, 0u);
  EXPECT_EQ(w.goodput_during, 0.0);
  EXPECT_EQ(w.shed_during, 0u);
  // burn = bad fraction / (1 - objective) = 1.0 / 0.2.
  EXPECT_DOUBLE_EQ(w.burn_during, 5.0);
  EXPECT_EQ(w.burn_after, 0.0);  // [5000, 5500) is all good
  EXPECT_TRUE(w.recovered);
  EXPECT_GT(w.time_to_recover_ns, 0.0);
  EXPECT_LE(w.time_to_recover_ns, 1000.0);
  EXPECT_TRUE(report.all_recovered);
  EXPECT_EQ(report.worst_time_to_recover_ns, w.time_to_recover_ns);
}

TEST(RecoveryTest, NeverRecoversWhenBadnessContinues) {
  // Bad from the window start to the end of the run.
  const auto outcomes = SyntheticOutcomes(3000.0, 1e18);
  const std::vector<obs::FaultWindow> windows = {{"w", 3000.0, 5000.0}};
  const obs::RecoveryReport report =
      obs::EvaluateRecovery(SmallRecoveryOptions(), outcomes, windows);
  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_FALSE(report.windows[0].recovered);
  EXPECT_FALSE(report.all_recovered);
  EXPECT_GT(report.windows[0].burn_after, 0.0);
}

TEST(RecoveryTest, HedgeWinsCountedPerWindow) {
  const auto outcomes = SyntheticOutcomes(3000.0, 5000.0);
  const std::vector<obs::FaultWindow> windows = {{"w", 3000.0, 5000.0}};
  const std::vector<Nanoseconds> wins = {3100.0, 4990.0, 9000.0};
  const obs::RecoveryReport report = obs::EvaluateRecovery(
      SmallRecoveryOptions(), outcomes, windows, &wins);
  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_EQ(report.windows[0].hedge_wins_during, 2u);  // 9000 is outside
  EXPECT_DOUBLE_EQ(report.windows[0].hedge_win_rate_during, 2.0 / 200.0);
}

TEST(RecoveryTest, NoWindowsIsVacuouslyRecovered) {
  const auto outcomes = SyntheticOutcomes(3000.0, 5000.0);
  const obs::RecoveryReport report =
      obs::EvaluateRecovery(SmallRecoveryOptions(), outcomes, {});
  EXPECT_TRUE(report.windows.empty());
  EXPECT_TRUE(report.all_recovered);
  EXPECT_EQ(report.worst_time_to_recover_ns, 0.0);
}

TEST(RecoveryTest, ZeroLengthWindowOffersNothingAndStaysFinite) {
  // A [t, t) window contains no arrivals: every rate must come out as its
  // documented vacuous value, not a 0/0.
  const auto outcomes = SyntheticOutcomes(3000.0, 5000.0);
  const std::vector<obs::FaultWindow> windows = {{"zero", 4000.0, 4000.0}};
  const obs::RecoveryReport report =
      obs::EvaluateRecovery(SmallRecoveryOptions(), outcomes, windows);
  ASSERT_EQ(report.windows.size(), 1u);
  const obs::WindowRecovery& w = report.windows[0];
  EXPECT_EQ(w.offered_during, 0u);
  EXPECT_EQ(w.goodput_during, 1.0);
  EXPECT_EQ(w.shed_rate_during, 0.0);
  EXPECT_EQ(w.hedge_win_rate_during, 0.0);
  EXPECT_EQ(w.burn_during, 0.0);
  // The detector still runs from the window's end over real outcomes.
  EXPECT_GT(w.burn_after, 0.0);  // [4000, 4500) is inside the bad span
}

TEST(RecoveryTest, OverlappingWindowsOnSameTargetScoreIndependently) {
  const auto outcomes = SyntheticOutcomes(3000.0, 5000.0);
  const std::vector<obs::FaultWindow> windows = {
      {"whole", 3000.0, 5000.0}, {"tail", 4000.0, 5000.0}};
  const obs::RecoveryReport report =
      obs::EvaluateRecovery(SmallRecoveryOptions(), outcomes, windows);
  ASSERT_EQ(report.windows.size(), 2u);
  EXPECT_EQ(report.windows[0].offered_during, 200u);
  EXPECT_EQ(report.windows[1].offered_during, 100u);
  EXPECT_EQ(report.windows[0].goodput_during, 0.0);
  EXPECT_EQ(report.windows[1].goodput_during, 0.0);
  // Both end at the same instant, so both recover at the same time.
  EXPECT_TRUE(report.all_recovered);
  EXPECT_EQ(report.windows[0].time_to_recover_ns,
            report.windows[1].time_to_recover_ns);
}

TEST(RecoveryTest, WindowWithNoCompletedQueriesIsAllShed) {
  // Every query offered during the window was shed: goodput must hit 0
  // and burn must be exactly 1/(1 - objective), with no served-latency
  // division anywhere.
  auto outcomes = SyntheticOutcomes(1e18, 1e18);  // all good by default
  for (obs::QueryOutcome& o : outcomes) {
    if (o.arrival_ns >= 3000.0 && o.arrival_ns < 5000.0) {
      o.served = false;
      o.latency_ns = 0.0;
    }
  }
  const std::vector<obs::FaultWindow> windows = {{"dark", 3000.0, 5000.0}};
  const obs::RecoveryReport report =
      obs::EvaluateRecovery(SmallRecoveryOptions(), outcomes, windows);
  ASSERT_EQ(report.windows.size(), 1u);
  const obs::WindowRecovery& w = report.windows[0];
  EXPECT_EQ(w.offered_during, 200u);
  EXPECT_EQ(w.good_during, 0u);
  EXPECT_EQ(w.shed_during, 200u);
  EXPECT_EQ(w.goodput_during, 0.0);
  EXPECT_EQ(w.shed_rate_during, 1.0);
  EXPECT_DOUBLE_EQ(w.burn_during, 1.0 / (1.0 - 0.8));
  EXPECT_TRUE(w.recovered);
}

// ---- Chaos sweep ----------------------------------------------------------

sched::ChaosSweepConfig SmallSweepConfig() {
  sched::ChaosSweepConfig config;
  config.queries = 3000;
  config.intensity_points = 2;
  return config;
}

void ExpectSameChaosRecord(const sched::ChaosRecord& a,
                           const sched::ChaosRecord& b) {
  EXPECT_EQ(a.intensity, b.intensity);
  EXPECT_EQ(a.policy, b.policy);
  ExpectSameBaseReport(a.report.base, b.report.base);
  EXPECT_EQ(a.report.timed_out, b.report.timed_out);
  EXPECT_EQ(a.report.retries, b.report.retries);
  EXPECT_EQ(a.report.hedges, b.report.hedges);
  EXPECT_EQ(a.report.hedge_wins, b.report.hedge_wins);
  EXPECT_EQ(a.report.breaker_opens, b.report.breaker_opens);
  EXPECT_EQ(a.recovery.all_recovered, b.recovery.all_recovered);
  EXPECT_EQ(a.recovery.worst_time_to_recover_ns,
            b.recovery.worst_time_to_recover_ns);
}

TEST(ChaosSweepTest, ScenarioIsDeterministicAndScalesWithIntensity) {
  const Nanoseconds horizon = Milliseconds(8);
  const sched::ChaosScenario zero =
      sched::BuildChaosScenario(0.0, /*fault_seed=*/7, horizon);
  EXPECT_TRUE(zero.windows.empty());
  for (const FaultSchedule& s : zero.schedules) EXPECT_TRUE(s.empty());

  const sched::ChaosScenario full =
      sched::BuildChaosScenario(1.0, /*fault_seed=*/7, horizon);
  ASSERT_EQ(full.schedules.size(), sched::kFleetSize);
  EXPECT_EQ(full.windows.size(), 3u);
  EXPECT_FALSE(full.schedules[sched::kFleetFpga].empty());
  EXPECT_FALSE(full.schedules[sched::kFleetCpu].empty());
  EXPECT_FALSE(full.schedules[sched::kFleetHotCache].empty());

  const sched::ChaosScenario again =
      sched::BuildChaosScenario(1.0, /*fault_seed=*/7, horizon);
  for (std::size_t b = 0; b < full.schedules.size(); ++b) {
    const auto& x = full.schedules[b].events();
    const auto& y = again.schedules[b].events();
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].kind, y[i].kind);
      EXPECT_EQ(x[i].start_ns, y[i].start_ns);
      EXPECT_EQ(x[i].end_ns, y[i].end_ns);
      EXPECT_EQ(x[i].target, y[i].target);
      EXPECT_EQ(x[i].magnitude, y[i].magnitude);
      // Every event of schedule b targets backend b.
      EXPECT_EQ(x[i].target, static_cast<std::uint32_t>(b));
    }
  }
}

TEST(ChaosSweepTest, ByteIdenticalAtAnyThreadCount) {
  sched::ChaosSweepConfig config = SmallSweepConfig();
  const sched::ChaosSweepResult serial = sched::RunChaosSweep(config);
  ASSERT_EQ(serial.records.size(),
            config.intensity_points * sched::kNumChaosPolicies);
  ASSERT_EQ(serial.headlines.size(), config.intensity_points - 1);

  config.threads = 4;
  const sched::ChaosSweepResult threaded = sched::RunChaosSweep(config);
  ASSERT_EQ(threaded.records.size(), serial.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    ExpectSameChaosRecord(serial.records[i], threaded.records[i]);
  }
  EXPECT_EQ(serial.headline_win, threaded.headline_win);
}

TEST(ChaosSweepTest, ZeroIntensityPointsMatchHealthyBaseScheduler) {
  const sched::ChaosSweepConfig config = SmallSweepConfig();
  const sched::ChaosSweepResult result = sched::RunChaosSweep(config);

  // Reconstruct the sweep's documented load: one Poisson stream at the
  // config seed, and a fresh unwrapped fleet per policy.
  sched::LoadGenConfig load = SmallChaosLoad();
  load.num_queries = config.queries;
  const auto stream = sched::GenerateLoad(load);
  const Nanoseconds span =
      static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
  sched::FtOptions healthy_options;
  healthy_options.base.sla_ns = config.sla_ns;
  healthy_options.base.slo_objective = config.slo_objective;

  const std::pair<std::size_t, std::size_t> checks[] = {
      {sched::kChaosStaticFpga, sched::kFleetFpga},
      {sched::kChaosQueueDepth, sched::kFleetSize},
  };
  for (const auto& [policy_index, static_backend] : checks) {
    sched::FleetConfig fleet_config = SmallFleetConfig();
    fleet_config.horizon_ns = span;
    auto fleet = sched::BuildStandardFleet(fleet_config);
    auto policy = static_backend < sched::kFleetSize
                      ? sched::MakeStaticPolicy(static_backend, "static:fpga")
                      : sched::MakeQueueDepthPolicy();
    // The unwrapped healthy fleet through the same loop, layer off.
    const sched::SchedReport base =
        sched::SimulateFaultTolerantServing(stream, fleet, *policy,
                                            healthy_options)
            .base;
    ExpectSameBaseReport(result.records[policy_index].report.base, base);
    EXPECT_TRUE(result.records[policy_index].recovery.windows.empty());
  }
}

TEST(ChaosSweepTest, CliChaosSweepIsThreadIdenticalOnStdout) {
  const std::vector<std::string> base_args = {
      "chaos-sweep", "--queries", "2000", "--fault-points", "2"};
  std::ostringstream serial;
  std::vector<std::string> args = base_args;
  args.push_back("--threads");
  args.push_back("1");
  ASSERT_TRUE(cli::RunCli(args, serial).ok());
  EXPECT_NE(serial.str().find("HEADLINE"), std::string::npos);

  std::ostringstream threaded;
  args.back() = "4";
  ASSERT_TRUE(cli::RunCli(args, threaded).ok());
  EXPECT_EQ(serial.str(), threaded.str());
}

TEST(ChaosSweepTest, CliChaosSweepRejectsBadArguments) {
  std::ostringstream out;
  EXPECT_FALSE(cli::RunCli({"chaos-sweep", "positional"}, out).ok());
  EXPECT_FALSE(cli::RunCli({"chaos-sweep", "--queries", "0"}, out).ok());
  EXPECT_FALSE(
      cli::RunCli({"chaos-sweep", "--fault-intensity-max", "1.5"}, out).ok());
  // NaN passes a [0, 1] range check, so the parser must refuse it.
  for (const char* bad : {"abc", "nan", "inf"}) {
    EXPECT_EQ(
        cli::RunCli({"chaos-sweep", "--fault-intensity-max", bad}, out).code(),
        StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_FALSE(cli::RunCli({"chaos-sweep", "--fault-points", "0"}, out).ok());
  EXPECT_FALSE(cli::RunCli({"chaos-sweep", "--sla-us", "0"}, out).ok());
  EXPECT_FALSE(cli::RunCli({"chaos-sweep", "--bogus", "1"}, out).ok());
}

// ---- Flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, AttachedRecorderIsBitIdenticalAndReconciles) {
  sched::ChaosSweepConfig config;
  config.queries = 4000;
  const Nanoseconds span =
      static_cast<double>(config.queries) / config.qps * kNanosPerSecond;
  const sched::ChaosScenario scenario =
      sched::BuildChaosScenario(1.0, config.fault_seed, span);
  sched::LoadGenConfig load = SmallChaosLoad();
  load.num_queries = config.queries;
  const auto stream = sched::GenerateLoad(load);

  const auto run = [&](obs::EventLog* log) {
    sched::FleetConfig fleet_config = SmallFleetConfig();
    fleet_config.horizon_ns = span;
    auto fleet = sched::WrapFleetWithFaults(
        sched::BuildStandardFleet(fleet_config), scenario.schedules);
    auto policy = sched::MakeQueueDepthPolicy();
    sched::FtOptions options = sched::ChaosFtOptions(config, /*hedge=*/true);
    // Tighten the deadline so this small run produces deadline misses to
    // reconstruct (the blessed 30k-query sweep gets them at the default).
    options.deadline_ns = 0.6 * config.sla_ns;
    options.event_log = log;
    return sched::SimulateFaultTolerantServing(stream, fleet, *policy,
                                               options);
  };
  const sched::FtSchedReport bare = run(nullptr);
  obs::EventLog log;
  const sched::FtSchedReport recorded = run(&log);

  // Attaching the recorder changes nothing in the report.
  ExpectSameBaseReport(bare.base, recorded.base);
  EXPECT_EQ(bare.timed_out, recorded.timed_out);
  EXPECT_EQ(bare.retries, recorded.retries);
  EXPECT_EQ(bare.hedges, recorded.hedges);
  EXPECT_EQ(bare.hedge_wins, recorded.hedge_wins);
  EXPECT_EQ(bare.cancelled_completions, recorded.cancelled_completions);
  EXPECT_EQ(bare.breaker_opens, recorded.breaker_opens);
  EXPECT_EQ(bare.breaker_sheds, recorded.breaker_sheds);

  // The log reconciles exactly with the report's counters. Retries and
  // hedges are counted from the dispatched admit events: kRetry /
  // kHedgeIssue record *scheduled* re-admissions, which the event loop
  // skips when the query resolves before they fire.
  ASSERT_EQ(log.dropped(), 0u);
  std::uint64_t serves = 0, hedge_wins = 0, sheds = 0, misses = 0,
                retry_admits = 0, hedge_admits = 0, retries_scheduled = 0,
                hedges_scheduled = 0, opens = 0;
  std::unordered_set<std::uint64_t> missed_queries;
  for (const obs::SchedEvent& e : log.events()) {
    switch (e.kind) {
      case obs::SchedEventKind::kServe: ++serves; break;
      case obs::SchedEventKind::kHedgeWin: ++hedge_wins; break;
      case obs::SchedEventKind::kShed: ++sheds; break;
      case obs::SchedEventKind::kDeadlineMiss:
        ++misses;
        missed_queries.insert(e.query);
        break;
      case obs::SchedEventKind::kAdmit:
        if (e.hedge) ++hedge_admits;
        else if (e.attempt > 0) ++retry_admits;
        break;
      case obs::SchedEventKind::kRetry: ++retries_scheduled; break;
      case obs::SchedEventKind::kHedgeIssue: ++hedges_scheduled; break;
      case obs::SchedEventKind::kBreakerOpen: ++opens; break;
      default: break;
    }
  }
  EXPECT_EQ(serves + hedge_wins, recorded.base.served);
  EXPECT_EQ(hedge_wins, recorded.hedge_wins);
  EXPECT_EQ(sheds + misses, recorded.base.shed);
  EXPECT_EQ(misses, recorded.timed_out);
  EXPECT_EQ(retry_admits, recorded.retries);
  EXPECT_EQ(hedge_admits, recorded.hedges);
  EXPECT_GE(retries_scheduled, retry_admits);
  EXPECT_GE(hedges_scheduled, hedge_admits);
  EXPECT_EQ(opens, recorded.breaker_opens);

  // Every deadline-missed query's full admit -> terminal story is
  // reconstructible from the ring (the ISSUE's 100% completeness gate).
  EXPECT_GT(missed_queries.size(), 0u);
  for (const std::uint64_t query : missed_queries) {
    const obs::QueryTimeline t = obs::BuildQueryTimeline(log, query);
    EXPECT_TRUE(t.complete) << "query " << query;
    EXPECT_EQ(t.terminal, "deadline-miss") << "query " << query;
    EXPECT_GE(t.admits, 1u) << "query " << query;
  }
}

TEST(FlightRecorderTest, RecordedSweepIsThreadIdenticalByteForByte) {
  sched::ChaosSweepConfig config = SmallSweepConfig();
  const sched::ChaosSweepResult unrecorded = sched::RunChaosSweep(config);
  ASSERT_EQ(unrecorded.records.back().events, nullptr);

  config.record_events = true;
  const sched::ChaosSweepResult serial = sched::RunChaosSweep(config);
  config.threads = 4;
  const sched::ChaosSweepResult threaded = sched::RunChaosSweep(config);

  // Recording changes no record, at any thread count.
  ASSERT_EQ(serial.records.size(), unrecorded.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    ExpectSameChaosRecord(unrecorded.records[i], serial.records[i]);
    ExpectSameChaosRecord(unrecorded.records[i], threaded.records[i]);
  }

  // Only the blessed point carries a log, and the serialized log is
  // byte-identical across thread counts.
  for (std::size_t i = 0; i + 1 < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].events, nullptr);
  }
  ASSERT_NE(serial.records.back().events, nullptr);
  ASSERT_NE(threaded.records.back().events, nullptr);
  EXPECT_GT(serial.records.back().events->size(), 0u);
  EXPECT_EQ(serial.records.back().events->ToJson(),
            threaded.records.back().events->ToJson());
}

TEST(FlightRecorderTest, CliWritesEventsAndPostmortemAndExplainReadsThem) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("microrec_chaos_recorder_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string events_path = (dir / "events.json").string();
  const std::string postmortem_path = (dir / "postmortem.json").string();

  const std::vector<std::string> base_args = {
      "chaos-sweep", "--queries", "3000", "--fault-points", "2"};
  std::ostringstream plain;
  ASSERT_TRUE(cli::RunCli(base_args, plain).ok());

  std::vector<std::string> args = base_args;
  args.insert(args.end(), {"--record-events", events_path, "--postmortem",
                           postmortem_path});
  std::ostringstream recorded;
  ASSERT_TRUE(cli::RunCli(args, recorded).ok());

  // The recorder only appends to stdout; the sweep output is unchanged.
  ASSERT_GT(recorded.str().size(), plain.str().size());
  EXPECT_EQ(recorded.str().substr(0, plain.str().size()), plain.str());
  EXPECT_NE(recorded.str().find("flight recorder:"), std::string::npos);
  EXPECT_NE(recorded.str().find("wrote postmortem"), std::string::npos);

  // The events file round-trips through the parser...
  std::ifstream events_file(events_path);
  std::ostringstream events_text;
  events_text << events_file.rdbuf();
  const auto parsed = obs::EventLog::FromJson(events_text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_GT(parsed.value().size(), 0u);
  // ...and the postmortem snapshot carries its alert sections.
  std::ifstream pm_file(postmortem_path);
  std::ostringstream pm_text;
  pm_text << pm_file.rdbuf();
  EXPECT_NE(pm_text.str().find("\"alerts\""), std::string::npos);
  EXPECT_NE(pm_text.str().find("\"slo\""), std::string::npos);

  // `explain` reconstructs timelines straight from the written file.
  std::ostringstream worst;
  ASSERT_TRUE(cli::RunCli({"explain", events_path, "--worst", "2"}, worst)
                  .ok());
  EXPECT_NE(worst.str().find("event log:"), std::string::npos);
  EXPECT_NE(worst.str().find("worst 2"), std::string::npos);
  EXPECT_NE(worst.str().find("admission(s)"), std::string::npos);

  // A recorded query renders a per-event timeline; an unknown id is a
  // clean NotFound, not garbage output.
  std::uint64_t recorded_query = obs::kNoQuery;
  for (const obs::SchedEvent& e : parsed.value().events()) {
    if (e.query != obs::kNoQuery) {
      recorded_query = e.query;
      break;
    }
  }
  ASSERT_NE(recorded_query, obs::kNoQuery);
  std::ostringstream single;
  ASSERT_TRUE(cli::RunCli({"explain", events_path, "--query",
                           std::to_string(recorded_query)},
                          single)
                  .ok());
  EXPECT_NE(single.str().find("query " + std::to_string(recorded_query)),
            std::string::npos);
  std::ostringstream missing;
  EXPECT_FALSE(cli::RunCli({"explain", events_path, "--query", "999999999"},
                           missing)
                   .ok());

  fs::remove_all(dir);
}

TEST(FlightRecorderTest, CliExplainRejectsBadArguments) {
  std::ostringstream out;
  // No events file, two events files, missing file, bad option values.
  EXPECT_FALSE(cli::RunCli({"explain"}, out).ok());
  EXPECT_FALSE(cli::RunCli({"explain", "a.json", "b.json"}, out).ok());
  EXPECT_FALSE(
      cli::RunCli({"explain", "/nonexistent/events.json"}, out).ok());
  EXPECT_FALSE(cli::RunCli({"explain", "a.json", "--worst", "0"}, out).ok());
  EXPECT_FALSE(cli::RunCli({"explain", "a.json", "--bogus", "1"}, out).ok());
}

}  // namespace
}  // namespace microrec
