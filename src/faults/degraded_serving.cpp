#include "faults/degraded_serving.hpp"

#include <algorithm>
#include <sstream>

namespace microrec {

std::string DegradedServingReport::ToString() const {
  std::ostringstream os;
  os << served << "/" << offered << " served (availability "
     << 100.0 * availability << "%, shed " << shed_admission
     << " admission + " << shed_unservable << " unservable)";
  if (served > 0) {
    os << " | served p50 " << FormatNanos(serving.p50) << " p99 "
       << FormatNanos(serving.p99) << " max " << FormatNanos(serving.max);
  }
  return os.str();
}

StatusOr<DegradedServingReport> SimulateDegradedServing(
    const std::vector<Nanoseconds>& arrivals,
    const DegradedServingConfig& config, const FaultSchedule& schedule,
    const FailoverRouter* router, const MemoryPlatformSpec* platform) {
  if (arrivals.empty()) {
    return Status::InvalidArgument("degraded serving: no arrivals");
  }
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] < arrivals[i - 1]) {
      return Status::InvalidArgument(
          "degraded serving: arrivals are not nondecreasing at index " +
          std::to_string(i));
    }
  }
  if (config.pipeline_replicas == 0) {
    return Status::InvalidArgument("degraded serving: replicas must be >= 1");
  }
  if (config.item_latency_ns <= 0.0 || config.initiation_interval_ns <= 0.0) {
    return Status::InvalidArgument(
        "degraded serving: item latency and initiation interval must be > 0");
  }
  if (router != nullptr) {
    if (platform == nullptr) {
      return Status::InvalidArgument(
          "degraded serving: a FailoverRouter needs the platform spec");
    }
    if (config.base_lookup_latency_ns <= 0.0) {
      return Status::InvalidArgument(
          "degraded serving: base_lookup_latency_ns must be > 0 with a "
          "router");
    }
    if (config.lookups_per_table == 0) {
      return Status::InvalidArgument(
          "degraded serving: lookups_per_table must be >= 1 with a router");
    }
  }

  DegradedServingReport report;
  report.offered = arrivals.size();

  // Resolve metric handles once; hot-loop sites only touch them when
  // telemetry is attached so the disabled path stays identical.
  obs::Histogram* queue_delay_hist = nullptr;
  if (config.metrics != nullptr) {
    queue_delay_hist = &config.metrics->histogram(
        "degraded_queue_delay_ns", {}, obs::HistogramOptions{1.0, 1.25, 96});
  }

  // next_start[k]: earliest time pipeline replica k can begin a new item
  // (same dispatch state as sched::PipelineBackend; the fault layer only
  // filters which replicas are eligible and reshapes per-item cost).
  std::vector<Nanoseconds> next_start(config.pipeline_replicas, 0.0);
  std::vector<Nanoseconds> served_arrivals;
  std::vector<Nanoseconds> served_completions;
  served_arrivals.reserve(arrivals.size());
  served_completions.reserve(arrivals.size());

  // Pure observation: the SLO outcome stream mirrors every decision the
  // loop below makes, one entry per offered query.
  std::vector<obs::QueryOutcome>* outcomes = config.outcomes;
  if (outcomes != nullptr) outcomes->reserve(arrivals.size());
  const auto record_shed = [outcomes](Nanoseconds arrival) {
    if (outcomes != nullptr) {
      outcomes->push_back(obs::QueryOutcome{arrival, 0.0, false});
    }
  };

  for (const Nanoseconds arrival : arrivals) {
    // Least-loaded dispatch over *live* replicas.
    std::uint32_t best = config.pipeline_replicas;
    for (std::uint32_t k = 0; k < config.pipeline_replicas; ++k) {
      if (!schedule.ReplicaAlive(k, arrival)) continue;
      if (best == config.pipeline_replicas ||
          next_start[k] < next_start[best]) {
        best = k;
      }
    }
    if (best == config.pipeline_replicas) {
      ++report.shed_unservable;  // whole fleet is down
      record_shed(arrival);
      continue;
    }
    const Nanoseconds start = std::max(arrival, next_start[best]);

    // Per-query degraded cost: the failover router re-prices the lookup
    // round at this query's start time.
    Nanoseconds item_latency = config.item_latency_ns;
    Nanoseconds initiation = config.initiation_interval_ns;
    if (router != nullptr) {
      const RoutedLookups routed =
          router->Route(config.lookups_per_table, start);
      if (!routed.fully_servable()) {
        ++report.shed_unservable;  // a table lost every replica
        record_shed(arrival);
        continue;
      }
      const Nanoseconds lookup = router->DegradedLookupLatency(
          config.lookups_per_table, *platform, start);
      item_latency =
          config.item_latency_ns - config.base_lookup_latency_ns + lookup;
      // A stretched lookup round stretches the pipeline's bottleneck stage:
      // the replica initiates items more slowly, i.e. capacity drops.
      const double capacity_factor = lookup / config.base_lookup_latency_ns;
      if (capacity_factor > 1.0) initiation *= capacity_factor;
    }

    // Admission control: shed instead of queueing past the bound. Shed
    // queries consume no pipeline slot.
    if (start - arrival > config.admission_queue_ns) {
      ++report.shed_admission;
      record_shed(arrival);
      continue;
    }

    next_start[best] = start + initiation;
    const Nanoseconds done = start + item_latency;
    if (queue_delay_hist != nullptr) queue_delay_hist->Observe(start - arrival);
    if (outcomes != nullptr) {
      outcomes->push_back(obs::QueryOutcome{arrival, done - arrival, true});
    }
    served_arrivals.push_back(arrival);
    served_completions.push_back(done);
    report.item_latency_max_ns =
        std::max(report.item_latency_max_ns, item_latency);
  }

  report.served = served_arrivals.size();
  report.availability = static_cast<double>(report.served) /
                        static_cast<double>(report.offered);
  report.shed_rate = 1.0 - report.availability;
  if (report.served > 0) {
    report.serving =
        SummarizeServing(served_arrivals, served_completions, config.sla_ns);
  }
  if (config.metrics != nullptr) {
    config.metrics->counter("degraded_offered_total").Inc(report.offered);
    config.metrics->counter("degraded_served_total").Inc(report.served);
    config.metrics->counter("degraded_shed_admission_total")
        .Inc(report.shed_admission);
    config.metrics->counter("degraded_shed_unservable_total")
        .Inc(report.shed_unservable);
  }
  return report;
}

}  // namespace microrec
