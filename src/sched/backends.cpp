#include "sched/backends.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace microrec::sched {

// ---------------------------------------------------------------------------
// PipelineBackend
// ---------------------------------------------------------------------------

PipelineBackend::PipelineBackend(const PipelineBackendConfig& config)
    : config_(config) {
  MICROREC_CHECK(config.replicas >= 1);
  MICROREC_CHECK(config.item_latency_ns > 0.0);
  MICROREC_CHECK(config.initiation_interval_ns > 0.0);
  // A k-item query streams for (k - 1) intervals and finishes one item
  // latency after its last start, so the linear model is exact here:
  // service(k) = (item_latency - ii) + k * ii. Lookups ride inside the
  // pipeline's item latency (that is the paper's point), so the marginal
  // per-lookup cost is zero.
  cost_.fixed_ns = config.item_latency_ns - config.initiation_interval_ns;
  cost_.per_item_ns = config.initiation_interval_ns;
  cost_.per_lookup_ns = 0.0;
  replicas_.assign(config.replicas,
                   PipelineServer(config.item_latency_ns,
                                  config.initiation_interval_ns));
}

double PipelineBackend::capacity_items_per_s() const {
  return static_cast<double>(config_.replicas) * kNanosPerSecond /
         config_.initiation_interval_ns;
}

bool PipelineBackend::Accepting(Nanoseconds now) const {
  for (std::uint32_t k = 0; k < config_.replicas; ++k) {
    if (config_.faults.ReplicaAlive(k, now)) return true;
  }
  return false;
}

Nanoseconds PipelineBackend::QueueDepthNs(Nanoseconds now) const {
  // Backlog of the least-loaded *alive* replica; falls back to the whole
  // pool when dark (policies consult Accepting first).
  bool any_alive = false;
  Nanoseconds earliest = 0.0;
  for (std::uint32_t k = 0; k < config_.replicas; ++k) {
    if (!config_.faults.ReplicaAlive(k, now)) continue;
    const Nanoseconds next = replicas_[k].NextStart();
    earliest = any_alive ? std::min(earliest, next) : next;
    any_alive = true;
  }
  if (!any_alive) {
    earliest = replicas_[0].NextStart();
    for (std::size_t k = 1; k < replicas_.size(); ++k) {
      earliest = std::min(earliest, replicas_[k].NextStart());
    }
  }
  return std::max(0.0, earliest - now);
}

bool PipelineBackend::Admit(const SchedQuery& q) {
  // Least-loaded dispatch over replicas alive at the arrival instant:
  // earliest NextStart, lowest index on ties.
  bool found = false;
  std::uint32_t best = 0;
  for (std::uint32_t k = 0; k < config_.replicas; ++k) {
    if (!config_.faults.ReplicaAlive(k, q.arrival_ns)) continue;
    if (!found || replicas_[k].NextStart() < replicas_[best].NextStart()) {
      best = k;
      found = true;
    }
  }
  if (!found) return false;  // pool dark: shed
  if (std::max(q.arrival_ns, replicas_[best].NextStart()) - q.arrival_ns >
      config_.admission_queue_ns) {
    return false;  // would wait past the admission bound: shed
  }
  // Degrade windows (keyed by replica index) stretch the item latency.
  const double multiplier =
      config_.faults.BankLatencyMultiplier(best, q.arrival_ns);
  done_.Push(q.id,
             replicas_[best].AdmitWithLatency(
                 q.arrival_ns, q.items, config_.item_latency_ns * multiplier),
             q.arrival_ns);
  return true;
}

void PipelineBackend::Drain(Nanoseconds now,
                            std::vector<SchedCompletion>& out) {
  done_.DrainUntil(now, out);
}

void PipelineBackend::Finalize(std::vector<SchedCompletion>& out) {
  done_.DrainAll(out);
}

// ---------------------------------------------------------------------------
// CpuBatchedBackend
// ---------------------------------------------------------------------------

CpuBatchedBackend::CpuBatchedBackend(const CpuBackendConfig& config)
    : config_(config) {
  MICROREC_CHECK(config.servers >= 1);
  MICROREC_CHECK(config.max_batch >= 1);
  // The expectation a policy should plan with includes the aggregation
  // window: a non-full batch launches a full timeout after its window
  // opens, on top of the framework dispatch overhead.
  cost_.fixed_ns = config.fixed_overhead_ns + config.batch_timeout_ns;
  cost_.per_item_ns = config.per_item_ns;
  cost_.per_lookup_ns = config.per_lookup_ns;
  const BatchLatencyFn latency_fn = [config](std::uint64_t batch) {
    return config.fixed_overhead_ns +
           static_cast<double>(batch) *
               (config.per_item_ns +
                static_cast<double>(config.lookups_per_item) *
                    config.per_lookup_ns);
  };
  servers_.reserve(config.servers);
  for (std::uint32_t s = 0; s < config.servers; ++s) {
    servers_.push_back({OnlineBatchedServer(config.max_batch,
                                            config.batch_timeout_ns,
                                            latency_fn),
                        {},
                        0});
  }
}

double CpuBatchedBackend::capacity_items_per_s() const {
  const Nanoseconds full_batch_ns =
      config_.fixed_overhead_ns +
      static_cast<double>(config_.max_batch) *
          (config_.per_item_ns +
           static_cast<double>(config_.lookups_per_item) *
               config_.per_lookup_ns);
  return static_cast<double>(config_.servers) *
         static_cast<double>(config_.max_batch) /
         ToSeconds(full_batch_ns);
}

Nanoseconds CpuBatchedBackend::QueueDepthNs(Nanoseconds now) const {
  Nanoseconds earliest_free = servers_[0].batcher.server_free();
  for (std::size_t s = 1; s < servers_.size(); ++s) {
    earliest_free = std::min(earliest_free, servers_[s].batcher.server_free());
  }
  return std::max(0.0, earliest_free - now);
}

bool CpuBatchedBackend::Admit(const SchedQuery& q) {
  // The query's items join one server's batch queue as individual units
  // (they may straddle batches when a batch fills mid-query); the query
  // completes with its last unit.
  MICROREC_CHECK(q.items >= 1);
  Server& server = servers_[next_server_];
  next_server_ = (next_server_ + 1) % servers_.size();
  server.in_flight.push_back({q.id, q.items, q.arrival_ns});
  for (std::uint64_t u = 0; u < q.items; ++u) {
    server.batcher.Assign(static_cast<std::size_t>(q.id), q.arrival_ns);
  }
  return true;
}

void CpuBatchedBackend::FlushServer(Server& server, Nanoseconds now,
                                    bool final_flush) {
  server.batcher.Flush(now, raw_, final_flush);
  for (const auto& [unit_id, completion] : raw_) {
    MICROREC_CHECK(server.head < server.in_flight.size());
    InFlight& front = server.in_flight[server.head];
    MICROREC_CHECK(front.query_id == unit_id);
    if (--front.units_left == 0) {
      done_.Push(front.query_id, completion, front.arrival_ns);
      ++server.head;
    }
  }
  raw_.clear();
  if (server.head * 2 >= server.in_flight.size()) {  // moves <= it drops
    server.in_flight.erase(
        server.in_flight.begin(),
        server.in_flight.begin() + static_cast<std::ptrdiff_t>(server.head));
    server.head = 0;
  }
}

Nanoseconds CpuBatchedBackend::NextDueNs() const {
  Nanoseconds due = done_.EarliestNs();
  for (const Server& server : servers_) {
    due = std::min(due, server.batcher.NextLaunchNs());
  }
  return due;
}

void CpuBatchedBackend::Drain(Nanoseconds now,
                              std::vector<SchedCompletion>& out) {
  for (Server& server : servers_) {
    FlushServer(server, now, /*final_flush=*/false);
  }
  done_.DrainUntil(now, out);
}

void CpuBatchedBackend::Finalize(std::vector<SchedCompletion>& out) {
  for (Server& server : servers_) {
    FlushServer(server, 0.0, /*final_flush=*/true);
  }
  done_.DrainAll(out);
}

// ---------------------------------------------------------------------------
// HotCacheBackend
// ---------------------------------------------------------------------------

HotCacheBackend::HotCacheBackend(const HotCacheBackendConfig& config)
    : config_(config),
      pipeline_(config.miss_item_latency_ns, config.initiation_interval_ns),
      cache_(config.cache_capacity_bytes),
      zipf_(config.key_space, config.zipf_theta),
      rng_(config.seed) {
  MICROREC_CHECK(config.hit_item_latency_ns > 0.0);
  MICROREC_CHECK(config.miss_item_latency_ns >= config.hit_item_latency_ns);
  MICROREC_CHECK(config.initiation_interval_ns > 0.0);
  // Cold-cache expectation: every item misses. Admit refines the fixed
  // term from the observed hit rate as the cache warms.
  cost_.fixed_ns =
      config.miss_item_latency_ns - config.initiation_interval_ns;
  cost_.per_item_ns = config.initiation_interval_ns;
  cost_.per_lookup_ns = 0.0;
}

double HotCacheBackend::capacity_items_per_s() const {
  return kNanosPerSecond / config_.initiation_interval_ns;
}

Nanoseconds HotCacheBackend::QueueDepthNs(Nanoseconds now) const {
  return std::max(0.0, pipeline_.NextStart() - now);
}

bool HotCacheBackend::Admit(const SchedQuery& q) {
  // One representative hot-row probe per item; the query's item latency is
  // the hit-weighted mix of the cached and full-path latencies.
  std::uint64_t hits = 0;
  for (std::uint64_t u = 0; u < q.items; ++u) {
    const std::uint64_t row = zipf_.Sample(rng_);
    if (cache_.Access(/*table_id=*/0, row, config_.entry_bytes)) ++hits;
  }
  const double hit_fraction =
      static_cast<double>(hits) / static_cast<double>(q.items);
  const Nanoseconds item_latency =
      hit_fraction * config_.hit_item_latency_ns +
      (1.0 - hit_fraction) * config_.miss_item_latency_ns;
  done_.Push(q.id,
             pipeline_.AdmitWithLatency(q.arrival_ns, q.items, item_latency),
             q.arrival_ns);
  const double hr = cache_.stats().hit_rate();
  cost_.fixed_ns = hr * config_.hit_item_latency_ns +
                   (1.0 - hr) * config_.miss_item_latency_ns -
                   config_.initiation_interval_ns;
  return true;
}

void HotCacheBackend::Drain(Nanoseconds now,
                            std::vector<SchedCompletion>& out) {
  done_.DrainUntil(now, out);
}

void HotCacheBackend::Finalize(std::vector<SchedCompletion>& out) {
  done_.DrainAll(out);
}

}  // namespace microrec::sched
