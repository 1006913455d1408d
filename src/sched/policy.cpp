#include "sched/policy.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/status.hpp"
#include "obs/event_log.hpp"

namespace microrec::sched {

namespace {

class StaticPolicy final : public SchedulingPolicy {
 public:
  StaticPolicy(std::size_t backend_index, std::string name)
      : index_(backend_index), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  std::size_t Route(
      const SchedQuery&,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    MICROREC_CHECK(index_ < backends.size());
    return index_;
  }

 private:
  std::size_t index_;
  std::string name_;
};

class RoundRobinPolicy final : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "round-robin"; }

  std::size_t Route(
      const SchedQuery&,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    const std::size_t pick = next_ % backends.size();
    ++next_;
    return pick;
  }

 private:
  std::size_t next_ = 0;
};

class SpillPolicy final : public SchedulingPolicy {
 public:
  SpillPolicy(std::size_t primary, std::size_t overflow,
              Nanoseconds threshold_ns)
      : primary_(primary), overflow_(overflow), threshold_ns_(threshold_ns) {}

  std::string_view name() const override { return "spill"; }

  std::size_t Route(
      const SchedQuery& q,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    MICROREC_CHECK(primary_ < backends.size() && overflow_ < backends.size());
    return backends[primary_]->QueueDepthNs(q.arrival_ns) > threshold_ns_
               ? overflow_
               : primary_;
  }

 private:
  std::size_t primary_;
  std::size_t overflow_;
  Nanoseconds threshold_ns_;
};

/// Lowest predicted latency among accepting backends, lowest index on
/// ties. Index 0 when the whole fleet is dark (the admit then sheds).
std::size_t ArgminPredicted(
    const SchedQuery& q,
    const std::vector<std::unique_ptr<Backend>>& backends,
    std::size_t exclude = static_cast<std::size_t>(-1)) {
  std::size_t best = 0;
  bool found = false;
  Nanoseconds best_predicted = 0.0;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (i == exclude) continue;
    if (!backends[i]->Accepting(q.arrival_ns)) continue;
    const Nanoseconds predicted = backends[i]->PredictLatency(q);
    if (!found || predicted < best_predicted) {
      best = i;
      best_predicted = predicted;
      found = true;
    }
  }
  return best;
}

class QueueDepthPolicy final : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "queue-depth"; }

  std::size_t Route(
      const SchedQuery& q,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    return ArgminPredicted(q, backends);
  }
};

class SloAwarePolicy final : public SchedulingPolicy {
 public:
  explicit SloAwarePolicy(const SloAwarePolicyConfig& config)
      : config_(config), gate_(config.occupancy_init) {
    MICROREC_CHECK(config.sla_ns > 0.0);
    MICROREC_CHECK(config.objective > 0.0 && config.objective < 1.0);
    MICROREC_CHECK(config.window >= 1);
  }

  std::string_view name() const override { return "slo-aware"; }

  std::size_t Route(
      const SchedQuery& q,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    // Fast path for this query: smallest modeled service time among
    // accepting backends.
    std::size_t fast = 0;
    bool found = false;
    Nanoseconds fast_service = 0.0;
    for (std::size_t i = 0; i < backends.size(); ++i) {
      if (!backends[i]->Accepting(q.arrival_ns)) continue;
      const Nanoseconds service =
          backends[i]->cost_model().ServiceTime(q.items, q.lookups_per_item);
      if (!found || service < fast_service) {
        fast = i;
        fast_service = service;
        found = true;
      }
    }
    if (!found) return 0;  // fleet dark; the admit sheds

    // Occupancy the query itself would push the fast path to. Charging the
    // query's own service time makes large queries trip the gate first.
    const Nanoseconds load =
        backends[fast]->QueueDepthNs(q.arrival_ns) + fast_service;
    if (load / config_.sla_ns <= gate_) return fast;

    // Offload: best predicted latency anywhere else; keep the fast path
    // only if nothing else accepts.
    const std::size_t alt = ArgminPredicted(q, backends, fast);
    if (alt == fast || !backends[alt]->Accepting(q.arrival_ns)) return fast;
    return alt;
  }

  void OnOutcome(const obs::QueryOutcome& outcome) override {
    const bool bad =
        !outcome.served || outcome.latency_ns > config_.sla_ns;
    window_.push_back(bad);
    bad_in_window_ += bad ? 1 : 0;
    if (window_.size() > config_.window) {
      bad_in_window_ -= window_.front() ? 1 : 0;
      window_.pop_front();
    }
    const double bad_fraction = static_cast<double>(bad_in_window_) /
                                static_cast<double>(window_.size());
    const double burn = bad_fraction / (1.0 - config_.objective);
    if (burn >= config_.burn_high) {
      gate_ = std::max(config_.occupancy_min, gate_ * config_.shrink);
    } else if (burn <= config_.burn_low) {
      gate_ = std::min(config_.occupancy_max, gate_ * config_.grow);
    }
  }

 private:
  SloAwarePolicyConfig config_;
  double gate_;  ///< fast-path occupancy threshold, fraction of the SLA
  std::deque<bool> window_;
  std::uint64_t bad_in_window_ = 0;
};

}  // namespace

std::unique_ptr<SchedulingPolicy> MakeStaticPolicy(std::size_t backend_index,
                                                   std::string name) {
  return std::make_unique<StaticPolicy>(backend_index, std::move(name));
}

std::unique_ptr<SchedulingPolicy> MakeRoundRobinPolicy() {
  return std::make_unique<RoundRobinPolicy>();
}

std::unique_ptr<SchedulingPolicy> MakeSpillPolicy(std::size_t primary,
                                                  std::size_t overflow,
                                                  Nanoseconds threshold_ns) {
  return std::make_unique<SpillPolicy>(primary, overflow, threshold_ns);
}

std::unique_ptr<SchedulingPolicy> MakeQueueDepthPolicy() {
  return std::make_unique<QueueDepthPolicy>();
}

std::unique_ptr<SchedulingPolicy> MakeSloAwarePolicy(
    const SloAwarePolicyConfig& config) {
  return std::make_unique<SloAwarePolicy>(config);
}

void CollectBackendProbes(const SchedQuery& q,
                          const std::vector<std::unique_ptr<Backend>>& backends,
                          obs::SchedEvent& event) {
  event.probes.resize(backends.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    obs::BackendProbe& p = event.probes[b];
    p.score_ns = backends[b]->PredictLatency(q);
    p.queue_ns = backends[b]->QueueDepthNs(q.arrival_ns);
    p.accepting = backends[b]->Accepting(q.arrival_ns);
  }
}

}  // namespace microrec::sched
