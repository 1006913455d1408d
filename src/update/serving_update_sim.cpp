#include "update/serving_update_sim.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "serving/pipeline_server.hpp"

namespace microrec {

std::string UpdateServingReport::ToString() const {
  std::ostringstream os;
  os << serving.ToString() << "\n";
  os << "updates: " << update_rows << " rows in " << update_batches
     << " batches @" << update_row_qps << " rows/s, " << publishes
     << " publish(es), " << FormatBytes(update_bytes_written) << " written\n";
  os << "staleness p50 " << FormatNanos(staleness_p50) << " p95 "
     << FormatNanos(staleness_p95) << " p99 " << FormatNanos(staleness_p99)
     << " max " << FormatNanos(staleness_max) << "\n";
  os << "write interference: " << delayed_queries << " delayed quer(ies), "
     << "mean " << FormatNanos(interference_mean) << ", max "
     << FormatNanos(interference_max);
  return os.str();
}

namespace {

/// A batch's version swap, which takes effect once its writes complete.
struct PendingPublish {
  Nanoseconds effective_ns = 0.0;   ///< write completion of the batch
  Nanoseconds newest_delta_ns = 0.0;
};

}  // namespace

UpdateServingReport SimulateServingWithUpdates(
    const RecModelSpec& model, const PlacementPlan& plan,
    const MemoryPlatformSpec& platform,
    const std::vector<Nanoseconds>& arrivals,
    const UpdateServingConfig& config) {
  MICROREC_CHECK(!arrivals.empty());

  UpdateServingReport report;
  report.update_row_qps = config.deltas.update_row_qps;
  const bool updates_on = config.deltas.update_row_qps > 0.0;

  std::vector<Nanoseconds> completions(arrivals.size());

  if (!updates_on) {
    // Zero update rate short-circuits onto the bare pipeline recurrence:
    // no memsim, no delta stream, and the same arithmetic as a pipeline
    // backend serving the stream alone.
    PipelineServer pipeline(config.item_latency_ns,
                            config.initiation_interval_ns);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      completions[i] = pipeline.Admit(arrivals[i]);
    }
    report.serving = SummarizeServing(arrivals, completions, config.sla_ns);
    return report;
  }

  DeltaStream stream(model, config.deltas);
  UpdateWriteInjector injector(plan, platform);
  // One access per table: LookupDelay takes the largest remaining write
  // occupancy over the banks a lookup touches, so repeated lookups of a
  // table change nothing.
  const std::vector<BankAccess> lookup = plan.ToBankAccesses(1);

  PercentileTracker staleness;
  RunningStats interference;

  Nanoseconds last_start = -config.initiation_interval_ns;
  // Channels require nondecreasing issue times; the yield policy can push a
  // batch past the next batch's generation time, so later injections clamp
  // to this cursor.
  Nanoseconds issue_cursor = 0.0;
  Nanoseconds newest_generated = 0.0;
  Nanoseconds newest_published = 0.0;
  std::deque<PendingPublish> pending_publishes;

  // Issues one batch's writes at `at` (clamped to the channel-order
  // cursor) and queues its version swap for when those writes complete.
  auto issue_batch = [&](const UpdateBatch& batch, Nanoseconds at) {
    ++report.update_batches;
    report.update_rows += batch.size();
    issue_cursor = std::max(issue_cursor, at);
    const Nanoseconds done = injector.Inject(batch, issue_cursor);
    pending_publishes.push_back(PendingPublish{done, batch.time_ns});
    ++report.publishes;
  };

  auto roll_publishes_forward = [&](Nanoseconds now) {
    while (!pending_publishes.empty() &&
           pending_publishes.front().effective_ns <= now) {
      newest_published =
          std::max(newest_published, pending_publishes.front().newest_delta_ns);
      pending_publishes.pop_front();
    }
  };

  // Update generation is capped at the offered arrival window: batches
  // generated after the last arrival cannot stand in front of any measured
  // query, and chasing the receding start times of a saturated run would
  // otherwise generate updates without bound.
  const Nanoseconds window_end = arrivals.back();
  std::deque<UpdateBatch> deferred;  // updates-yield holding queue

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Nanoseconds tentative =
        std::max(arrivals[i], last_start + config.initiation_interval_ns);

    // Pull every batch generated up to this query's issue point. Batches
    // generated later queue *behind* the lookup on their banks (the lookup
    // joins the bank queues at `tentative`), so they affect only later
    // queries. Fair interleave issues writes at generation time; the yield
    // policy parks them for the next idle gap in the arrival stream.
    while (stream.next_batch_time_ns() <= tentative &&
           stream.next_batch_time_ns() <= window_end) {
      UpdateBatch batch = stream.NextBatch();
      newest_generated = std::max(newest_generated, batch.time_ns);
      if (config.policy == WritePolicy::kFairInterleave) {
        issue_batch(batch, batch.time_ns);
      } else {
        deferred.push_back(std::move(batch));
      }
    }
    if (config.policy == WritePolicy::kUpdatesYield) {
      // The embedding stage is busy until last_start + II; writes may slot
      // into the idle gap between that and this arrival. A write must
      // *start* inside the gap; its tail may spill into the query, which
      // then pays the (small) remaining occupancy via LookupDelay.
      const Nanoseconds gap_start =
          last_start + config.initiation_interval_ns;
      while (!deferred.empty()) {
        const Nanoseconds at =
            std::max(gap_start, deferred.front().time_ns);
        if (at >= arrivals[i]) break;  // no idle time left before the query
        issue_batch(deferred.front(), at);
        deferred.pop_front();
      }
    }

    const Nanoseconds delay = injector.LookupDelay(lookup, tentative);
    const Nanoseconds start = tentative + delay;
    if (delay > 0.0) ++report.delayed_queries;
    interference.Add(delay);

    roll_publishes_forward(start);
    const Nanoseconds stale = std::max(0.0, newest_generated - newest_published);
    staleness.Add(stale);
    completions[i] = start + config.item_latency_ns;
    last_start = start;
  }

  // Flush writes still parked when the stream ends so the write/publish
  // totals cover every generated batch (staleness sampling is done).
  while (!deferred.empty()) {
    issue_batch(deferred.front(),
                std::max(issue_cursor, deferred.front().time_ns));
    deferred.pop_front();
  }

  report.serving = SummarizeServing(arrivals, completions, config.sla_ns);
  report.update_bytes_written = injector.bytes_written();
  report.staleness_p50 = staleness.Percentile(0.50);
  report.staleness_p95 = staleness.Percentile(0.95);
  report.staleness_p99 = staleness.Percentile(0.99);
  report.staleness_max = staleness.Max();
  report.staleness_mean = staleness.Mean();
  report.interference_mean = interference.mean();
  report.interference_max = interference.max();
  return report;
}

}  // namespace microrec
