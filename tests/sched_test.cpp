// Tests for the multi-path scheduling subsystem (src/sched/):
//   * the load generator's Poisson path is bit-identical to
//     PoissonArrivals, bursty processes concentrate arrivals where their
//     rate envelopes say, and size mixes never shift arrival times;
//   * the Backend adapters are zero-overhead: routing a whole stream to
//     one backend reproduces its state machine's own recurrence (the
//     pipeline written out by hand, the batched server with every query
//     assigned up front) bit for bit; a crashed pipeline replica shrinks
//     the pool without shedding, and an admission bound sheds instead of
//     queueing past it;
//   * policies route as documented (round-robin cycles, spill leaves the
//     primary only past its threshold, queue-depth picks the argmin,
//     slo-aware offloads only once the fast path's occupancy gate trips,
//     degraded pools shed only while fully down);
//   * the sweep grid is byte-identical across thread counts and its
//     headline rows are consistent with the grid records.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cli/commands.hpp"
#include "common/rng.hpp"
#include "faults/fault_schedule.hpp"
#include "sched/backend.hpp"
#include "sched/backends.hpp"
#include "sched/fault_model.hpp"
#include "sched/fleet.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "sched/sweep.hpp"
#include "serving/batched_server.hpp"
#include "serving/serving_sim.hpp"

namespace microrec::sched {
namespace {

std::vector<SchedQuery> UnitQueries(const std::vector<Nanoseconds>& arrivals,
                                    std::uint64_t lookups_per_item = 1) {
  std::vector<SchedQuery> queries;
  queries.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    queries.push_back(SchedQuery{i, arrivals[i], 1, lookups_per_item});
  }
  return queries;
}

/// The item-streaming recurrence written out by hand for R replicas with
/// least-loaded dispatch (earliest next start, lowest index on ties): a
/// query starts at max(arrival, prev_start + II) on its replica and is
/// done L later.
std::vector<Nanoseconds> PipelineRecurrence(
    const std::vector<Nanoseconds>& arrivals, std::uint32_t replicas,
    Nanoseconds item_latency_ns, Nanoseconds ii_ns) {
  std::vector<Nanoseconds> next_start(replicas, 0.0);
  std::vector<Nanoseconds> done;
  done.reserve(arrivals.size());
  for (const Nanoseconds arrival : arrivals) {
    std::uint32_t best = 0;
    for (std::uint32_t k = 1; k < replicas; ++k) {
      if (next_start[k] < next_start[best]) best = k;
    }
    const Nanoseconds start = std::max(arrival, next_start[best]);
    next_start[best] = start + ii_ns;
    done.push_back(start + item_latency_ns);
  }
  return done;
}

/// Runs every query through one backend and scatters completions by id.
std::vector<Nanoseconds> RunThrough(Backend& backend,
                                    const std::vector<SchedQuery>& queries) {
  for (const auto& q : queries) EXPECT_TRUE(backend.Admit(q));
  std::vector<SchedCompletion> done;
  backend.Finalize(done);
  EXPECT_EQ(done.size(), queries.size());
  std::vector<Nanoseconds> completions(queries.size(), 0.0);
  for (const auto& c : done) completions[c.query_id] = c.completion_ns;
  return completions;
}

void ExpectSameReport(const ServingReport& a, const ServingReport& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.achieved_qps, b.achieved_qps);
  EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
}

// ----------------------------------------------------------------- LoadGen

TEST(LoadGenTest, PoissonBitIdenticalToPoissonArrivals) {
  LoadGenConfig config;
  config.process = ArrivalProcess::kPoisson;
  config.rate_qps = 200'000.0;
  config.num_queries = 5'000;
  config.seed = 7;
  const auto queries = GenerateLoad(config);
  const auto arrivals = PoissonArrivals(config.rate_qps, config.num_queries,
                                        config.seed);
  ASSERT_EQ(queries.size(), arrivals.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(queries[i].arrival_ns, arrivals[i]) << "query " << i;
    EXPECT_EQ(queries[i].id, i);
  }
}

TEST(LoadGenTest, DeterministicAndWellFormedForEveryProcess) {
  for (auto process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kMmpp,
        ArrivalProcess::kFlashCrowd, ArrivalProcess::kDiurnal}) {
    LoadGenConfig config;
    config.process = process;
    config.rate_qps = 100'000.0;
    config.num_queries = 2'000;
    config.seed = 11;
    config.sizes.large_fraction = 0.25;
    config.sizes.lookups_per_item = 8;
    const auto a = GenerateLoad(config);
    const auto b = GenerateLoad(config);
    ASSERT_EQ(a.size(), config.num_queries);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns);
      EXPECT_EQ(a[i].items, b[i].items);
      EXPECT_EQ(a[i].id, i);
      EXPECT_EQ(a[i].lookups_per_item, 8u);
      if (i > 0) {
        EXPECT_GE(a[i].arrival_ns, a[i - 1].arrival_ns);
      }
    }
  }
}

TEST(LoadGenTest, FlashCrowdConcentratesArrivalsInsideTheWindow) {
  LoadGenConfig config;
  config.process = ArrivalProcess::kFlashCrowd;
  config.rate_qps = 100'000.0;
  config.num_queries = 8'000;
  config.seed = 3;
  config.burst_multiplier = 5.0;
  config.flash_start_ns = Milliseconds(10);
  config.flash_duration_ns = Milliseconds(10);
  const auto queries = GenerateLoad(config);
  std::uint64_t inside = 0;
  const Nanoseconds end = config.flash_start_ns + config.flash_duration_ns;
  for (const auto& q : queries) {
    if (q.arrival_ns >= config.flash_start_ns && q.arrival_ns < end) {
      ++inside;
    }
  }
  const Nanoseconds span = queries.back().arrival_ns;
  const double window_share = config.flash_duration_ns / span;
  const double inside_share =
      static_cast<double>(inside) / static_cast<double>(queries.size());
  // The 5x window must hold clearly more than its uniform share of
  // arrivals (at 5x rate the exact share is 5w / (1 + 4w)).
  EXPECT_GT(inside_share, 2.0 * window_share);
}

TEST(LoadGenTest, SizeMixDrawsBimodalWithoutShiftingArrivals) {
  LoadGenConfig config;
  config.process = ArrivalProcess::kMmpp;
  config.rate_qps = 150'000.0;
  config.num_queries = 4'000;
  config.seed = 5;
  config.sizes = {/*small_items=*/2, /*large_items=*/32,
                  /*large_fraction=*/0.5, /*lookups_per_item=*/4};
  const auto mixed = GenerateLoad(config);
  std::uint64_t large = 0;
  for (const auto& q : mixed) {
    ASSERT_TRUE(q.items == 2 || q.items == 32);
    if (q.items == 32) ++large;
  }
  EXPECT_GT(large, config.num_queries / 4);
  EXPECT_LT(large, 3 * config.num_queries / 4);

  config.sizes.large_fraction = 0.0;
  const auto small_only = GenerateLoad(config);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed[i].arrival_ns, small_only[i].arrival_ns) << "query " << i;
    EXPECT_EQ(small_only[i].items, 2u);
  }
}

// ------------------------------------------------------------ SchedBackend

TEST(SchedBackendTest, CostModelIsLinearInItemsAndLookups) {
  const BackendCostModel model{1000.0, 10.0, 2.0};
  EXPECT_EQ(model.ServiceTime(0, 5), 1000.0);
  EXPECT_EQ(model.ServiceTime(1, 0), 1010.0);
  EXPECT_EQ(model.ServiceTime(4, 8), 1000.0 + 4.0 * (10.0 + 16.0));
}

TEST(SchedBackendTest, CompletionQueueDrainsInCompletionThenIdOrder) {
  CompletionQueue q;
  q.Push(3, 50.0, 3.0);
  q.Push(1, 10.0, 1.0);
  q.Push(2, 50.0, 2.0);
  q.Push(0, 30.0, 0.0);
  std::vector<SchedCompletion> out;
  q.DrainUntil(30.0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].query_id, 1u);
  EXPECT_EQ(out[1].query_id, 0u);
  q.DrainAll(out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[2].query_id, 2u);  // ties on completion break by id
  EXPECT_EQ(out[3].query_id, 3u);
  for (const SchedCompletion& c : out) {  // each keeps its own admit time
    EXPECT_EQ(c.admit_ns, static_cast<double>(c.query_id));
  }
}

TEST(SchedBackendTest, PipelineBackendMatchesPipelinedServerBitForBit) {
  const auto arrivals = PoissonArrivals(400'000.0, 3'000, 21);
  PipelineBackendConfig config;
  config.replicas = 1;
  config.item_latency_ns = 15'000.0;
  config.initiation_interval_ns = 300.0;
  PipelineBackend backend(config);
  const auto completions = RunThrough(backend, UnitQueries(arrivals));

  const auto expected =
      PipelineRecurrence(arrivals, 1, config.item_latency_ns,
                         config.initiation_interval_ns);
  ASSERT_EQ(completions.size(), expected.size());
  for (std::size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i], expected[i]) << "query " << i;
  }
}

TEST(SchedBackendTest, PipelineBackendMatchesReplicatedPipelines) {
  const auto arrivals = PoissonArrivals(2'000'000.0, 4'000, 9);
  PipelineBackendConfig config;
  config.replicas = 3;
  config.item_latency_ns = 20'000.0;
  config.initiation_interval_ns = 500.0;
  PipelineBackend backend(config);
  const auto completions = RunThrough(backend, UnitQueries(arrivals));
  const Nanoseconds sla = Milliseconds(1);
  const auto ours = SummarizeServing(arrivals, completions, sla);
  const auto expected = SummarizeServing(
      arrivals,
      PipelineRecurrence(arrivals, config.replicas, config.item_latency_ns,
                         config.initiation_interval_ns),
      sla);
  ExpectSameReport(ours, expected);
}

TEST(SchedBackendTest, CpuBackendMatchesBatchedServerBitForBit) {
  const auto arrivals = PoissonArrivals(50'000.0, 3'000, 17);
  CpuBackendConfig config;
  config.servers = 1;
  config.max_batch = 64;
  config.batch_timeout_ns = Milliseconds(1);
  config.fixed_overhead_ns = 400'000.0;
  config.per_item_ns = 300.0;
  config.per_lookup_ns = 50.0;
  config.lookups_per_item = 8;
  CpuBatchedBackend backend(config);
  const auto completions = RunThrough(backend, UnitQueries(arrivals, 8));
  const Nanoseconds sla = Milliseconds(10);
  const auto ours = SummarizeServing(arrivals, completions, sla);

  // Offline reference: the batch-forming state machine with every query
  // assigned up front and then one final flush.
  OnlineBatchedServer server(
      config.max_batch, config.batch_timeout_ns, [&](std::uint64_t batch) {
        return config.fixed_overhead_ns +
               static_cast<double>(batch) *
                   (config.per_item_ns +
                    static_cast<double>(config.lookups_per_item) *
                        config.per_lookup_ns);
      });
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    server.Assign(i, arrivals[i]);
  }
  std::vector<std::pair<std::size_t, Nanoseconds>> done;
  server.Flush(arrivals.back(), done, /*final_flush=*/true);
  std::vector<Nanoseconds> offline(arrivals.size(), 0.0);
  for (const auto& [query_id, completion] : done) {
    offline[query_id] = completion;
  }
  ExpectSameReport(ours, SummarizeServing(arrivals, offline, sla));
}

TEST(SchedBackendTest, MultiServerCpuBackendMatchesOfflineServersPerQuery) {
  // Three servers, queries of 1-300 items (most straddle several 64-unit
  // batches), drained at irregular times. Offline reference: query i goes
  // to server i mod 3 (round-robin placement), every unit is assigned up
  // front, one final flush runs, and a query completes with its last unit.
  CpuBackendConfig config;
  config.servers = 3;
  config.max_batch = 64;
  config.batch_timeout_ns = Microseconds(20);
  config.fixed_overhead_ns = Microseconds(30);
  config.per_item_ns = 200.0;
  config.per_lookup_ns = 25.0;
  config.lookups_per_item = 8;
  const auto arrivals = PoissonArrivals(15'000.0, 600, 33);
  Rng rng(34);
  std::vector<SchedQuery> queries = UnitQueries(arrivals, 8);
  for (SchedQuery& q : queries) q.items = 1 + rng.NextBounded(300);

  std::vector<OnlineBatchedServer> servers;
  for (std::uint32_t s = 0; s < config.servers; ++s) {
    servers.emplace_back(config.max_batch, config.batch_timeout_ns,
                         [&](std::uint64_t batch) {
                           return config.fixed_overhead_ns +
                                  static_cast<double>(batch) *
                                      (config.per_item_ns +
                                       8.0 * config.per_lookup_ns);
                         });
  }
  for (const SchedQuery& q : queries) {
    for (std::uint64_t u = 0; u < q.items; ++u) {
      servers[q.id % config.servers].Assign(q.id, q.arrival_ns);
    }
  }
  std::vector<Nanoseconds> offline(queries.size(), 0.0);
  for (OnlineBatchedServer& server : servers) {
    std::vector<std::pair<std::size_t, Nanoseconds>> units;
    server.Flush(0.0, units, /*final_flush=*/true);
    for (const auto& [query_id, completion] : units) {
      offline[query_id] = completion;  // the last unit's batch wins
    }
  }

  CpuBatchedBackend backend(config);
  std::vector<SchedCompletion> done;
  Nanoseconds clock = 0.0;
  const auto drain = [&](Nanoseconds now) {
    const std::size_t before = done.size();
    backend.Drain(now, done);
    for (std::size_t i = before; i < done.size(); ++i) {
      EXPECT_LE(done[i].completion_ns, now);
      if (i > before) {
        EXPECT_LE(done[i - 1].completion_ns, done[i].completion_ns);
      }
    }
    clock = now;
  };
  for (const SchedQuery& q : queries) {
    // Skip some arrivals, drain others once or twice in the gap.
    for (std::uint64_t k = rng.NextBounded(3); k > 0; --k) {
      drain(clock + (q.arrival_ns - clock) * rng.NextDouble());
    }
    ASSERT_TRUE(backend.Admit(q));
  }
  drain(clock + Microseconds(500) * rng.NextDouble());
  backend.Finalize(done);
  ASSERT_EQ(done.size(), queries.size());
  std::vector<bool> seen(queries.size(), false);
  for (const SchedCompletion& c : done) {
    ASSERT_LT(c.query_id, queries.size());
    EXPECT_FALSE(seen[c.query_id]) << "query " << c.query_id;
    seen[c.query_id] = true;
    EXPECT_EQ(c.completion_ns, offline[c.query_id]) << "query " << c.query_id;
    EXPECT_EQ(c.admit_ns, queries[c.query_id].arrival_ns);
  }
}

TEST(SchedBackendTest, DrainSurfacesOnlyElapsedCompletionsInOrder) {
  PipelineBackendConfig config;
  config.replicas = 2;
  config.item_latency_ns = 1'000.0;
  config.initiation_interval_ns = 100.0;
  PipelineBackend backend(config);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        backend.Admit(SchedQuery{i, static_cast<double>(i) * 50.0, 1, 1}));
  }
  std::vector<SchedCompletion> early;
  backend.Drain(1'200.0, early);
  EXPECT_GT(early.size(), 0u);
  EXPECT_LT(early.size(), 10u);
  for (const auto& c : early) EXPECT_LE(c.completion_ns, 1'200.0);
  for (std::size_t i = 1; i < early.size(); ++i) {
    EXPECT_LE(early[i - 1].completion_ns, early[i].completion_ns);
  }
  std::vector<SchedCompletion> rest;
  backend.Finalize(rest);
  EXPECT_EQ(early.size() + rest.size(), 10u);
}

TEST(SchedBackendTest, DegradedPoolShedsOnlyWhileEveryReplicaIsDown) {
  PipelineBackendConfig config;
  config.replicas = 2;
  config.item_latency_ns = 1'000.0;
  config.initiation_interval_ns = 100.0;
  FaultEvent crash0;
  crash0.kind = FaultKind::kReplicaCrash;
  crash0.target = 0;
  crash0.start_ns = 1'000.0;
  crash0.end_ns = 5'000.0;
  FaultEvent crash1 = crash0;
  crash1.target = 1;
  crash1.start_ns = 2'000.0;
  crash1.end_ns = 4'000.0;
  ASSERT_TRUE(config.faults.Add(crash0).ok());
  ASSERT_TRUE(config.faults.Add(crash1).ok());
  PipelineBackend backend(config);

  EXPECT_TRUE(backend.Accepting(0.0));    // both up
  EXPECT_TRUE(backend.Accepting(1'500.0));  // replica 1 still up
  EXPECT_FALSE(backend.Accepting(3'000.0));  // both down
  EXPECT_TRUE(backend.Accepting(4'500.0));  // replica 1 back

  EXPECT_TRUE(backend.Admit(SchedQuery{0, 0.0, 1, 1}));
  EXPECT_FALSE(backend.Admit(SchedQuery{1, 3'000.0, 1, 1}));  // shed
  EXPECT_TRUE(backend.Admit(SchedQuery{2, 4'500.0, 1, 1}));
  std::vector<SchedCompletion> done;
  backend.Finalize(done);
  EXPECT_EQ(done.size(), 2u);  // the shed query never completes
}

TEST(SchedBackendTest, CrashedReplicaShrinksThePoolNotTheService) {
  // One of two replicas down for the whole run: everything is still
  // served, but with half the capacity the queues -- and the tail -- grow.
  const auto arrivals = PoissonArrivals(400'000.0, 4'000, 11);
  PipelineBackendConfig healthy;
  healthy.replicas = 2;
  healthy.item_latency_ns = Microseconds(5);
  healthy.initiation_interval_ns = 400.0;
  PipelineBackendConfig degraded = healthy;
  FaultEvent crash;
  crash.kind = FaultKind::kReplicaCrash;
  crash.target = 1;
  crash.end_ns = kFaultNoRecovery;
  ASSERT_TRUE(degraded.faults.Add(crash).ok());
  const SchedReport h = ServeOnBackend(
      arrivals, std::make_unique<PipelineBackend>(healthy), Milliseconds(30));
  const SchedReport d = ServeOnBackend(
      arrivals, std::make_unique<PipelineBackend>(degraded), Milliseconds(30));
  EXPECT_EQ(d.availability, 1.0);
  EXPECT_GT(d.serving.p99, h.serving.p99);
}

TEST(SchedBackendTest, AdmissionBoundShedsInsteadOfQueueingForever) {
  // Offered load far above one pipeline's capacity: unbounded, the pool
  // queues everything; with a tight admission bound it sheds instead, and
  // no served query waited past the bound.
  const auto arrivals = PoissonArrivals(2'000'000.0, 4'000, 5);
  PipelineBackendConfig config;
  config.item_latency_ns = Microseconds(5);
  config.initiation_interval_ns = 2'000.0;  // 500 kQPS capacity
  const SchedReport unbounded = ServeOnBackend(
      arrivals, std::make_unique<PipelineBackend>(config), Milliseconds(30));
  EXPECT_EQ(unbounded.availability, 1.0);

  config.admission_queue_ns = Microseconds(50);
  const SchedReport bounded = ServeOnBackend(
      arrivals, std::make_unique<PipelineBackend>(config), Milliseconds(30));
  EXPECT_GT(bounded.shed, 0u);
  EXPECT_LT(bounded.availability, 1.0);
  EXPECT_LE(bounded.serving.max,
            config.admission_queue_ns + config.item_latency_ns + 1.0);
}

TEST(SchedBackendTest, HotCacheWarmsUpAndRefinesItsCostModel) {
  HotCacheBackendConfig config;
  config.hit_item_latency_ns = 1'000.0;
  config.miss_item_latency_ns = 10'000.0;
  config.initiation_interval_ns = 100.0;
  config.cache_capacity_bytes = 1u << 20;
  config.key_space = 1u << 14;
  config.zipf_theta = 1.1;
  config.seed = 29;
  HotCacheBackend backend(config);
  const Nanoseconds cold_fixed = backend.cost_model().fixed_ns;
  for (std::uint64_t i = 0; i < 4'000; ++i) {
    ASSERT_TRUE(
        backend.Admit(SchedQuery{i, static_cast<double>(i) * 200.0, 4, 1}));
  }
  std::vector<SchedCompletion> done;
  backend.Finalize(done);
  EXPECT_EQ(done.size(), 4'000u);
  EXPECT_GT(backend.hit_rate(), 0.5);  // a skewed stream warms the cache
  // The cost model's fixed term follows the observed hit rate downward.
  EXPECT_LT(backend.cost_model().fixed_ns, cold_fixed);
}

/// What ExpectDrainBoundedByNextDue saw of a backend's bound.
struct NextDueTrace {
  int skipped = 0;          ///< drains made at now < NextDueNs()
  bool saw_window = false;  ///< a finite bound with nothing resolved yet
  bool saw_any_time = false;  ///< a -inf bound (any drain may act)
};

/// Admits `queries` into `backend` and an identically built `twin`,
/// draining both at each arrival as the serving loop does. Wherever
/// `now < backend.NextDueNs()` -- at the arrival, and at the last instant
/// before the bound -- `backend` alone is drained first: it must emit
/// nothing, keep its bound, and answer every probe as the undrained twin
/// does.
NextDueTrace ExpectDrainBoundedByNextDue(
    Backend& backend, Backend& twin, const std::vector<SchedQuery>& queries) {
  NextDueTrace trace;
  const auto expect_twins = [&](Nanoseconds t) {
    EXPECT_EQ(backend.QueueDepthNs(t), twin.QueueDepthNs(t)) << "t=" << t;
    EXPECT_EQ(backend.Accepting(t), twin.Accepting(t)) << "t=" << t;
    EXPECT_EQ(backend.NextDueNs(), twin.NextDueNs()) << "t=" << t;
  };
  const Nanoseconds inf = std::numeric_limits<Nanoseconds>::infinity();
  for (const SchedQuery& q : queries) {
    const Nanoseconds due = backend.NextDueNs();
    trace.saw_any_time |= due == -inf;
    for (const Nanoseconds now : {q.arrival_ns, std::nextafter(due, -inf)}) {
      if (!(now < due) || !std::isfinite(now)) continue;
      trace.saw_window |= std::isfinite(due);
      std::vector<SchedCompletion> out;
      backend.Drain(now, out);
      EXPECT_TRUE(out.empty()) << "now=" << now << " due=" << due;
      EXPECT_EQ(backend.NextDueNs(), due);
      expect_twins(now);
      expect_twins(q.arrival_ns);
      ++trace.skipped;
    }
    std::vector<SchedCompletion> drained;
    std::vector<SchedCompletion> twin_drained;
    backend.Drain(q.arrival_ns, drained);
    twin.Drain(q.arrival_ns, twin_drained);
    EXPECT_EQ(drained.size(), twin_drained.size());
    EXPECT_EQ(backend.Admit(q), twin.Admit(q));
    expect_twins(q.arrival_ns);
  }
  std::vector<SchedCompletion> rest;
  std::vector<SchedCompletion> twin_rest;
  backend.Finalize(rest);
  twin.Finalize(twin_rest);
  EXPECT_EQ(rest.size(), twin_rest.size());
  EXPECT_EQ(backend.NextDueNs(), inf);  // nothing left in flight
  return trace;
}

std::vector<SchedQuery> MixedQueries(const std::vector<Nanoseconds>& arrivals) {
  std::vector<SchedQuery> queries = UnitQueries(arrivals);
  for (std::size_t i = 0; i < queries.size(); i += 5) queries[i].items = 3;
  return queries;
}

TEST(SchedBackendTest, NextDueNsBoundsEveryDrain) {
  const auto sparse = MixedQueries(PoissonArrivals(400'000.0, 300, 23));

  PipelineBackendConfig pipeline;
  pipeline.replicas = 2;
  pipeline.item_latency_ns = 4'000.0;
  pipeline.initiation_interval_ns = 900.0;
  PipelineBackend fpga(pipeline);
  PipelineBackend fpga_twin(pipeline);
  EXPECT_GT(ExpectDrainBoundedByNextDue(fpga, fpga_twin, sparse).skipped, 0);

  HotCacheBackendConfig cache;
  cache.hit_item_latency_ns = 800.0;
  cache.miss_item_latency_ns = 4'000.0;
  cache.initiation_interval_ns = 900.0;
  cache.cache_capacity_bytes = 1u << 12;
  cache.key_space = 1u << 10;
  HotCacheBackend hot(cache);
  HotCacheBackend hot_twin(cache);
  EXPECT_GT(ExpectDrainBoundedByNextDue(hot, hot_twin, sparse).skipped, 0);

  // CPU: sparse arrivals leave each server an open window (a finite
  // bound at its close); bursts of max_batch at one instant queue a full
  // batch, which may launch at any drain (a -inf bound).
  CpuBackendConfig cpu;
  cpu.servers = 2;
  cpu.max_batch = 4;
  cpu.batch_timeout_ns = 3'000.0;
  cpu.fixed_overhead_ns = 5'000.0;
  cpu.per_item_ns = 200.0;
  cpu.per_lookup_ns = 50.0;
  std::vector<Nanoseconds> arrivals = PoissonArrivals(100'000.0, 120, 31);
  for (int burst = 0; burst < 12; ++burst) {
    arrivals.insert(arrivals.end(), 8, arrivals.back() + 50'000.0);
  }
  {
    CpuBatchedBackend server(cpu);
    CpuBatchedBackend twin(cpu);
    const NextDueTrace trace =
        ExpectDrainBoundedByNextDue(server, twin, MixedQueries(arrivals));
    EXPECT_GT(trace.skipped, 0);
    EXPECT_TRUE(trace.saw_window);
    EXPECT_TRUE(trace.saw_any_time);
  }

  // Fault wrapper over each window kind: crash (Accepting flips), a 3x
  // brownout (completions move later than the inner machine's), and a
  // stall (completions held to its end).
  FaultSchedule faults;
  for (const auto& [kind, start, end, magnitude] :
       {std::tuple{FaultKind::kReplicaCrash, 100'000.0, 200'000.0, 1.0},
        std::tuple{FaultKind::kChannelDegrade, 250'000.0, 400'000.0, 3.0},
        std::tuple{FaultKind::kDmaStall, 500'000.0, 600'000.0, 1.0}}) {
    FaultEvent event;
    event.kind = kind;
    event.start_ns = start;
    event.end_ns = end;
    event.magnitude = magnitude;
    ASSERT_TRUE(faults.Add(event).ok());
  }
  for (const bool cpu_inner : {false, true}) {
    const auto inner = [&]() -> std::unique_ptr<Backend> {
      if (cpu_inner) return std::make_unique<CpuBatchedBackend>(cpu);
      return std::make_unique<PipelineBackend>(pipeline);
    };
    FaultInjectedBackend wrapped(inner(), BackendFaultModel(faults, 0));
    FaultInjectedBackend twin(inner(), BackendFaultModel(faults, 0));
    const NextDueTrace trace = ExpectDrainBoundedByNextDue(
        wrapped, twin, MixedQueries(PoissonArrivals(400'000.0, 300, 37)));
    EXPECT_GT(trace.skipped, 0) << "cpu_inner=" << cpu_inner;
    EXPECT_GT(wrapped.crash_rejects(), 0u) << "cpu_inner=" << cpu_inner;
  }
}

// ------------------------------------------------------------- SchedPolicy

std::vector<std::unique_ptr<Backend>> TwoPipelineFleet() {
  std::vector<std::unique_ptr<Backend>> fleet;
  PipelineBackendConfig fast;
  fast.name = "fast";
  fast.replicas = 1;
  fast.item_latency_ns = 1'000.0;
  fast.initiation_interval_ns = 1'000.0;
  PipelineBackendConfig slow;
  slow.name = "slow";
  slow.replicas = 1;
  slow.item_latency_ns = 5'000.0;
  slow.initiation_interval_ns = 500.0;
  fleet.push_back(std::make_unique<PipelineBackend>(fast));
  fleet.push_back(std::make_unique<PipelineBackend>(slow));
  return fleet;
}

TEST(SchedPolicyTest, StaticAlwaysPicksItsBackend) {
  auto fleet = TwoPipelineFleet();
  auto policy = MakeStaticPolicy(1, "static:slow");
  EXPECT_EQ(policy->name(), "static:slow");
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(policy->Route(SchedQuery{i, static_cast<double>(i), 1, 1},
                            fleet),
              1u);
  }
}

TEST(SchedPolicyTest, RoundRobinCyclesTheFleet) {
  auto fleet = TwoPipelineFleet();
  auto policy = MakeRoundRobinPolicy();
  std::vector<std::size_t> picks;
  for (std::uint64_t i = 0; i < 6; ++i) {
    picks.push_back(
        policy->Route(SchedQuery{i, static_cast<double>(i), 1, 1}, fleet));
  }
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 0, 1, 0, 1}));
}

TEST(SchedPolicyTest, SpillLeavesThePrimaryOnlyPastItsThreshold) {
  auto fleet = TwoPipelineFleet();
  auto policy = MakeSpillPolicy(/*primary=*/0, /*overflow=*/1,
                                /*threshold_ns=*/2'500.0);
  EXPECT_EQ(policy->name(), "spill");
  // Idle primary: stay.
  EXPECT_EQ(policy->Route(SchedQuery{0, 0.0, 1, 1}, fleet), 0u);
  // Backlog of exactly the threshold (the fast pipeline's II is 1 us, so
  // three queued items leave 2.5 us at t = 0.5 us): still the primary.
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(fleet[0]->Admit(SchedQuery{i + 1, 0.0, 1, 1}));
  }
  EXPECT_EQ(policy->Route(SchedQuery{10, 500.0, 1, 1}, fleet), 0u);
  // One nanosecond earlier the backlog is past the threshold: spill.
  EXPECT_EQ(policy->Route(SchedQuery{11, 499.0, 1, 1}, fleet), 1u);
}

TEST(SchedPolicyTest, QueueDepthPicksTheLowestPredictedLatency) {
  auto fleet = TwoPipelineFleet();
  auto policy = MakeQueueDepthPolicy();
  // Idle: fast (1 us service) beats slow (5 us).
  EXPECT_EQ(policy->Route(SchedQuery{0, 0.0, 1, 1}, fleet), 0u);
  // Pile work onto fast until its backlog dwarfs slow's service time.
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(fleet[0]->Admit(SchedQuery{i + 1, 0.0, 1, 1}));
  }
  EXPECT_EQ(policy->Route(SchedQuery{100, 0.0, 1, 1}, fleet), 1u);
}

TEST(SchedPolicyTest, SloAwareKeepsTheFastPathUntilTheGateTrips) {
  auto fleet = TwoPipelineFleet();
  SloAwarePolicyConfig config;
  config.sla_ns = 10'000.0;  // gate starts at 0.4 * 10 us = 4 us
  auto policy = MakeSloAwarePolicy(config);
  // Idle fast path: occupancy 1 us / 10 us is under the gate.
  EXPECT_EQ(policy->Route(SchedQuery{0, 0.0, 1, 1}, fleet), 0u);
  // 10 queued items = 10 us of backlog: occupancy over the gate, offload.
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fleet[0]->Admit(SchedQuery{i + 1, 0.0, 1, 1}));
  }
  EXPECT_EQ(policy->Route(SchedQuery{100, 0.0, 1, 1}, fleet), 1u);
}

TEST(SchedPolicyTest, SloAwareChargesTheQuerysOwnSizeAgainstTheGate) {
  // A fleet where the fast path wins on modeled service time at every
  // query size (low fixed cost AND low per-item cost), so the only reason
  // to leave it is the occupancy gate.
  std::vector<std::unique_ptr<Backend>> fleet;
  PipelineBackendConfig fast;
  fast.name = "fast";
  fast.item_latency_ns = 1'000.0;
  fast.initiation_interval_ns = 1'000.0;  // fixed 0, 1 us per item
  PipelineBackendConfig slow;
  slow.name = "slow";
  slow.item_latency_ns = 20'000.0;
  slow.initiation_interval_ns = 2'000.0;  // fixed 18 us, 2 us per item
  fleet.push_back(std::make_unique<PipelineBackend>(fast));
  fleet.push_back(std::make_unique<PipelineBackend>(slow));

  SloAwarePolicyConfig config;
  config.sla_ns = 10'000.0;
  auto policy = MakeSloAwarePolicy(config);
  // An idle fast path still rejects a 64-item query: 64 x 1 us of its own
  // service blows the 4 us gate, so large re-rank work offloads first.
  EXPECT_EQ(policy->Route(SchedQuery{0, 0.0, 64, 1}, fleet), 1u);
  // The small query behind it stays on the fast path.
  EXPECT_EQ(policy->Route(SchedQuery{1, 0.0, 1, 1}, fleet), 0u);
}

// ------------------------------------------------------------ SchedServing

TEST(SchedServingTest, StaticFpgaReproducesReplicatedPipelinesExactly) {
  // The zero-overhead identity gate: the whole sched stack (load gen ->
  // policy -> Backend adapter -> completion merge -> report) must
  // reproduce the replicated-pipeline recurrence bit for bit when every
  // query takes the single-backend path.
  LoadGenConfig load;
  load.process = ArrivalProcess::kPoisson;
  load.rate_qps = 600'000.0;
  load.num_queries = 5'000;
  load.seed = 42;
  const auto queries = GenerateLoad(load);

  FleetConfig fleet_config;
  fleet_config.horizon_ns = queries.back().arrival_ns;
  auto fleet = BuildStandardFleet(fleet_config);
  auto policy = MakeStaticPolicy(kFleetFpga, "static:fpga");
  FtOptions options;
  options.base.sla_ns = Milliseconds(2);
  const SchedReport report =
      SimulateFaultTolerantServing(queries, fleet, *policy, options).base;

  const auto arrivals = PoissonArrivals(load.rate_qps, load.num_queries,
                                        load.seed);
  const auto expected = SummarizeServing(
      arrivals,
      PipelineRecurrence(arrivals, fleet_config.fpga_replicas,
                         fleet_config.fpga_item_latency_ns,
                         fleet_config.fpga_initiation_interval_ns),
      options.base.sla_ns);
  EXPECT_EQ(report.offered, load.num_queries);
  EXPECT_EQ(report.served, load.num_queries);
  EXPECT_EQ(report.availability, 1.0);
  ExpectSameReport(report.serving, expected);
  ASSERT_EQ(report.usage.size(), kFleetSize);
  EXPECT_EQ(report.usage[kFleetFpga].queries, load.num_queries);
  EXPECT_EQ(report.usage[kFleetCpu].queries, 0u);
}

TEST(SchedServingTest, ShedQueriesCountAgainstAvailabilityAndSlo) {
  LoadGenConfig load;
  load.process = ArrivalProcess::kPoisson;
  load.rate_qps = 200'000.0;
  load.num_queries = 3'000;
  load.seed = 8;
  const auto queries = GenerateLoad(load);

  FleetConfig fleet_config;
  fleet_config.horizon_ns = queries.back().arrival_ns;
  auto fleet = BuildStandardFleet(fleet_config);
  auto policy = MakeStaticPolicy(kFleetDegraded, "static:degraded");
  FtOptions options;
  options.base.sla_ns = Milliseconds(2);
  const SchedReport report =
      SimulateFaultTolerantServing(queries, fleet, *policy, options).base;
  // The standard fleet's degraded pool has crash windows inside the
  // horizon, so a policy pinned to it must shed.
  EXPECT_GT(report.shed, 0u);
  EXPECT_EQ(report.offered, report.served + report.shed);
  EXPECT_LT(report.availability, 1.0);
  EXPECT_GT(report.slo.bad_fraction, 0.0);
  std::uint64_t usage_total = 0;
  for (const auto& u : report.usage) usage_total += u.queries;
  EXPECT_EQ(usage_total, report.served);
}

// -------------------------------------------------------------- SchedSweep

void ExpectSameSweep(const SchedSweepResult& a, const SchedSweepResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].process, b.records[i].process);
    EXPECT_EQ(a.records[i].report.policy, b.records[i].report.policy);
    EXPECT_EQ(a.records[i].report.served, b.records[i].report.served);
    EXPECT_EQ(a.records[i].report.shed, b.records[i].report.shed);
    EXPECT_EQ(a.records[i].report.serving.p50,
              b.records[i].report.serving.p50);
    EXPECT_EQ(a.records[i].report.serving.p99,
              b.records[i].report.serving.p99);
    EXPECT_EQ(a.records[i].report.serving.mean,
              b.records[i].report.serving.mean);
    EXPECT_EQ(a.records[i].report.slo.bad_fraction,
              b.records[i].report.slo.bad_fraction);
    ASSERT_EQ(a.records[i].report.usage.size(),
              b.records[i].report.usage.size());
    for (std::size_t u = 0; u < a.records[i].report.usage.size(); ++u) {
      EXPECT_EQ(a.records[i].report.usage[u].queries,
                b.records[i].report.usage[u].queries);
      EXPECT_EQ(a.records[i].report.usage[u].items,
                b.records[i].report.usage[u].items);
    }
  }
  ASSERT_EQ(a.headlines.size(), b.headlines.size());
  for (std::size_t i = 0; i < a.headlines.size(); ++i) {
    EXPECT_EQ(a.headlines[i].best_static, b.headlines[i].best_static);
    EXPECT_EQ(a.headlines[i].best_static_p99, b.headlines[i].best_static_p99);
    EXPECT_EQ(a.headlines[i].slo_aware_p99, b.headlines[i].slo_aware_p99);
  }
  EXPECT_EQ(a.slo_beats_best_static_any, b.slo_beats_best_static_any);
}

TEST(SchedSweepTest, ByteIdenticalAcrossThreadCounts) {
  SweepGridConfig config;
  config.queries = 1'500;
  config.qps = 500'000.0;
  config.seed = 13;
  config.threads = 1;
  const auto serial = RunSchedSweep(config);
  for (std::size_t threads : {2u, 4u, 8u}) {
    SweepGridConfig threaded = config;
    threaded.threads = threads;
    ExpectSameSweep(serial, RunSchedSweep(threaded));
  }
}

TEST(SchedSweepTest, GridShapeAndHeadlinesAreConsistent) {
  SweepGridConfig config;
  config.queries = 1'200;
  config.qps = 400'000.0;
  config.seed = 4;
  const auto result = RunSchedSweep(config);
  ASSERT_EQ(result.records.size(), kNumProcesses * kNumPolicies);
  // Process-major grid order, headline rows for the bursty processes only.
  EXPECT_EQ(result.records[0].process, "poisson");
  EXPECT_EQ(result.records[kNumPolicies].process, "mmpp");
  ASSERT_EQ(result.headlines.size(), kNumProcesses - 1);
  bool any = false;
  for (const auto& h : result.headlines) {
    // The headline's slo-aware p99 is the grid's slo-aware record.
    const auto* block = &result.records[0];
    for (std::size_t p = 0; p < kNumProcesses; ++p) {
      if (result.records[p * kNumPolicies].process == h.process) {
        block = &result.records[p * kNumPolicies];
      }
    }
    EXPECT_EQ(h.slo_aware_p99,
              block[kPolicySloAware].report.serving.p99);
    if (h.slo_beats_best_static) {
      EXPECT_LT(h.slo_aware_p99, h.best_static_p99);
      any = true;
    }
  }
  EXPECT_EQ(result.slo_beats_best_static_any, any);
}

TEST(SchedSweepTest, CliStdoutByteIdenticalAcrossThreads) {
  const std::vector<std::string> base = {"sched-sweep", "--queries", "1200",
                                         "--qps",       "400000",    "--seed",
                                         "4"};
  std::ostringstream serial;
  auto serial_args = base;
  serial_args.insert(serial_args.end(), {"--threads", "1"});
  ASSERT_TRUE(cli::RunCli(serial_args, serial).ok());
  EXPECT_NE(serial.str().find("HEADLINE:"), std::string::npos);
  for (const char* threads : {"2", "4"}) {
    std::ostringstream threaded;
    auto threaded_args = base;
    threaded_args.insert(threaded_args.end(), {"--threads", threads});
    ASSERT_TRUE(cli::RunCli(threaded_args, threaded).ok());
    EXPECT_EQ(serial.str(), threaded.str()) << "--threads " << threads;
  }
}

TEST(SchedSweepTest, CliRejectsBadArguments) {
  std::ostringstream out;
  EXPECT_FALSE(
      cli::RunCli({"sched-sweep", "--queries", "0"}, out).ok());
  EXPECT_FALSE(
      cli::RunCli({"sched-sweep", "--unknown-flag", "1"}, out).ok());
}

}  // namespace
}  // namespace microrec::sched
