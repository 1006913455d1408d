// Backend adapters over the repo's execution paths.
//
// Each adapter wraps one shared state machine -- PipelineServer for the
// item-streaming paths, OnlineBatchedServer for the CPU baseline -- so
// routing every query of a stream to one backend reproduces that
// machine's own recurrence bit for bit (gated by tests/sched_test.cpp).
// The adapters add only what scheduling needs: cost-model coefficients,
// queue-depth probes, and the sorted Drain/Finalize completion surface.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "embedding/hot_cache.hpp"
#include "faults/fault_schedule.hpp"
#include "sched/backend.hpp"
#include "serving/batched_server.hpp"
#include "serving/pipeline_server.hpp"

namespace microrec::sched {

// ---------------------------------------------------------------------------
// PipelineBackend: R replicas of the MicroRec item-streaming pipeline with
// least-loaded dispatch (earliest next start, lowest index on ties) -- the
// accelerator path. A k-item query streams k back-to-back items through
// one replica: query i starts at max(arrival, prev_start + II) on its
// replica and completes one item latency after its last item starts.
//
// `faults` makes the pool degradable: a replica covered by a
// kReplicaCrash window accepts nothing, and kChannelDegrade windows (keyed
// by replica index) multiply its item latency. When every replica is down
// the backend stops Accepting and Admit sheds, which is how fault windows
// become visible to scheduling policies. With an empty schedule every
// replica is always alive and the multiplier is exactly 1.0, so the pool
// is the healthy recurrence bit for bit.
//
// `admission_queue_ns` is admission control: Admit sheds a query that
// would wait longer than the bound for its replica, and the shed query
// takes no pipeline slot. Unbounded by default.
// ---------------------------------------------------------------------------

struct PipelineBackendConfig {
  std::string name = "fpga";
  std::uint32_t replicas = 1;
  Nanoseconds item_latency_ns = 0.0;
  Nanoseconds initiation_interval_ns = 0.0;
  FaultSchedule faults;
  Nanoseconds admission_queue_ns = std::numeric_limits<double>::infinity();
};

class PipelineBackend : public Backend {
 public:
  explicit PipelineBackend(const PipelineBackendConfig& config);

  std::string_view name() const override { return config_.name; }
  const BackendCostModel& cost_model() const override { return cost_; }
  double capacity_items_per_s() const override;
  Nanoseconds QueueDepthNs(Nanoseconds now) const override;
  bool Accepting(Nanoseconds now) const override;
  bool Admit(const SchedQuery& q) override;
  Nanoseconds NextDueNs() const override { return done_.EarliestNs(); }
  void Drain(Nanoseconds now, std::vector<SchedCompletion>& out) override;
  void Finalize(std::vector<SchedCompletion>& out) override;

 private:
  PipelineBackendConfig config_;
  BackendCostModel cost_;
  std::vector<PipelineServer> replicas_;
  CompletionQueue done_;
};

// ---------------------------------------------------------------------------
// CpuBatchedBackend: S batched CPU inference servers (the
// TensorFlow-Serving baseline) with round-robin query placement. Each
// query's items enter its server's batch queue as individual units, so the
// shared batch-forming state machine is untouched; the query completes
// when its last unit's batch does. A batch of b units takes
// fixed_overhead + b * (per_item + lookups_per_item * per_lookup). With
// one server and single-item queries this is exactly OnlineBatchedServer
// with every query assigned and then a final flush.
//
// A server launches its units in assignment order, and each batch starts
// at or after the previous one completes, so units resolve front to back:
// one FIFO of (query, units left, arrival) per server tracks every query
// in flight, and a unit that does not match its FIFO's front is a broken
// invariant.
// ---------------------------------------------------------------------------

struct CpuBackendConfig {
  std::string name = "cpu";
  std::uint32_t servers = 1;
  std::uint64_t max_batch = 64;
  Nanoseconds batch_timeout_ns = 0.0;
  /// Per-batch framework overhead (operator dispatch; see
  /// cpu/overhead_model.hpp for the paper-calibrated anchors).
  Nanoseconds fixed_overhead_ns = 0.0;
  Nanoseconds per_item_ns = 0.0;
  Nanoseconds per_lookup_ns = 0.0;
  /// Lookups per item assumed by the batch latency function (the fleet's
  /// nominal model shape).
  std::uint64_t lookups_per_item = 1;
};

class CpuBatchedBackend : public Backend {
 public:
  explicit CpuBatchedBackend(const CpuBackendConfig& config);

  std::string_view name() const override { return config_.name; }
  const BackendCostModel& cost_model() const override { return cost_; }
  double capacity_items_per_s() const override;
  Nanoseconds QueueDepthNs(Nanoseconds now) const override;
  bool Admit(const SchedQuery& q) override;
  /// The earliest resolved completion, or the earliest batch launch of
  /// any server (-inf once a full batch may be queued).
  Nanoseconds NextDueNs() const override;
  void Drain(Nanoseconds now, std::vector<SchedCompletion>& out) override;
  void Finalize(std::vector<SchedCompletion>& out) override;

 private:
  /// A query assigned to a server whose last unit has not completed.
  struct InFlight {
    std::uint64_t query_id;
    std::uint64_t units_left;
    Nanoseconds arrival_ns;
  };
  /// One batch server and its in-flight queries in assignment order;
  /// entries before `head` are resolved and compacted away in amortised
  /// O(1).
  struct Server {
    OnlineBatchedServer batcher;
    std::vector<InFlight> in_flight;
    std::size_t head = 0;
  };

  /// Flushes `server` at `now` and resolves the (unit id, batch
  /// completion) pairs it launched against its FIFO, pushing each query
  /// whose last unit completed onto done_.
  void FlushServer(Server& server, Nanoseconds now, bool final_flush);

  CpuBackendConfig config_;
  BackendCostModel cost_;
  std::vector<Server> servers_;
  std::size_t next_server_ = 0;
  CompletionQueue done_;
  std::vector<std::pair<std::size_t, Nanoseconds>> raw_;
};

// ---------------------------------------------------------------------------
// HotCacheBackend: a single pipeline fronted by the LRU hot-row cache.
// Each item draws its row from a Zipf distribution; hits stream at the
// cached-item latency, misses pay the full HBM-path latency. The per-query
// item latency is the hit-weighted mix, and the cost model's fixed term
// tracks the observed hit rate so policies see the cache warming up.
// ---------------------------------------------------------------------------

struct HotCacheBackendConfig {
  std::string name = "hot_cache";
  Nanoseconds hit_item_latency_ns = 0.0;
  Nanoseconds miss_item_latency_ns = 0.0;
  Nanoseconds initiation_interval_ns = 0.0;
  Bytes cache_capacity_bytes = 0;
  Bytes entry_bytes = 64;
  std::uint64_t key_space = 1u << 20;
  double zipf_theta = 0.9;
  std::uint64_t seed = 1;
};

class HotCacheBackend : public Backend {
 public:
  explicit HotCacheBackend(const HotCacheBackendConfig& config);

  std::string_view name() const override { return config_.name; }
  const BackendCostModel& cost_model() const override { return cost_; }
  double capacity_items_per_s() const override;
  Nanoseconds QueueDepthNs(Nanoseconds now) const override;
  bool Admit(const SchedQuery& q) override;
  Nanoseconds NextDueNs() const override { return done_.EarliestNs(); }
  void Drain(Nanoseconds now, std::vector<SchedCompletion>& out) override;
  void Finalize(std::vector<SchedCompletion>& out) override;

  double hit_rate() const { return cache_.stats().hit_rate(); }

 private:
  HotCacheBackendConfig config_;
  BackendCostModel cost_;
  PipelineServer pipeline_;
  EmbeddingCacheSim cache_;
  ZipfSampler zipf_;
  Rng rng_;
  CompletionQueue done_;
};

}  // namespace microrec::sched
