#include "fpga/host_interface.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace microrec {

Bytes QueryWireBytes(const RecModelSpec& model, std::uint32_t dense_features) {
  const Bytes index_bytes =
      static_cast<Bytes>(model.tables.size()) * model.lookups_per_table * 4;
  return index_bytes + static_cast<Bytes>(dense_features) * 4;
}

HostTransferReport AnalyzeHostTransfer(const RecModelSpec& model,
                                       InputMode mode,
                                       const PcieLinkSpec& link,
                                       std::uint64_t coalesce) {
  MICROREC_CHECK(coalesce >= 1);
  HostTransferReport report;
  report.mode = mode;
  report.bytes_per_query = QueryWireBytes(model);

  switch (mode) {
    case InputMode::kCachedOnFpga:
      report.latency_per_query = 0.0;
      report.max_queries_per_s = std::numeric_limits<double>::infinity();
      break;
    case InputMode::kStreamedPerItem: {
      report.latency_per_query =
          link.dma_setup_ns + link.WireTime(report.bytes_per_query);
      report.max_queries_per_s = kNanosPerSecond / report.latency_per_query;
      break;
    }
    case InputMode::kStreamedBatched: {
      const Nanoseconds batch_time =
          link.dma_setup_ns +
          link.WireTime(report.bytes_per_query * coalesce);
      // Per-query added latency: the whole DMA must land before the last
      // coalesced query can start (worst member of the batch).
      report.latency_per_query = batch_time;
      report.max_queries_per_s =
          static_cast<double>(coalesce) / ToSeconds(batch_time);
      break;
    }
  }
  return report;
}

StatusOr<DmaRetryReport> SimulateDmaWithRetries(
    const PcieLinkSpec& link, Bytes bytes_per_transfer,
    const std::vector<Nanoseconds>& issue_times, const RetryPolicy& policy,
    const LinkStallFn& stall) {
  MICROREC_RETURN_IF_ERROR(policy.Validate());
  if (issue_times.empty()) {
    return Status::InvalidArgument("dma retries: no transfers");
  }
  for (std::size_t i = 1; i < issue_times.size(); ++i) {
    if (issue_times[i] < issue_times[i - 1]) {
      return Status::InvalidArgument(
          "dma retries: issue times are not nondecreasing at index " +
          std::to_string(i));
    }
  }

  DmaRetryReport report;
  report.transfers.reserve(issue_times.size());
  report.healthy_latency_ns =
      link.dma_setup_ns + link.WireTime(bytes_per_transfer);

  Nanoseconds added_sum = 0.0;
  for (const Nanoseconds issue : issue_times) {
    DmaTransferOutcome outcome;
    outcome.issue_ns = issue;
    Nanoseconds t = issue;
    while (outcome.attempts < policy.max_attempts) {
      ++outcome.attempts;
      const Nanoseconds stall_end = stall ? stall(t) : t;
      if (stall_end <= t) {
        // Healthy link: the DMA completes unimpeded.
        outcome.success = true;
        outcome.completion_ns = t + report.healthy_latency_ns;
        break;
      }
      if (stall_end - t <= policy.attempt_timeout_ns) {
        // The stall clears within this attempt's patience; the engine
        // resumes and the transfer lands late but whole.
        outcome.success = true;
        outcome.completion_ns = stall_end + report.healthy_latency_ns;
        break;
      }
      // Timed out inside the stall: abandon, back off, retry.
      t += policy.attempt_timeout_ns;
      if (outcome.attempts < policy.max_attempts) {
        const Nanoseconds backoff =
            policy.BackoffAfterAttempt(outcome.attempts);
        outcome.backoff_total_ns += backoff;
        t += backoff;
      }
    }
    if (outcome.success) {
      ++report.succeeded;
      const Nanoseconds added =
          outcome.latency_ns() - report.healthy_latency_ns;
      added_sum += added;
      report.added_latency_max_ns =
          std::max(report.added_latency_max_ns, added);
    } else {
      ++report.failed;
      outcome.completion_ns = t;  // the moment the host gave up
    }
    report.transfers.push_back(outcome);
  }
  if (report.succeeded > 0) {
    report.added_latency_mean_ns =
        added_sum / static_cast<double>(report.succeeded);
  }
  return report;
}

}  // namespace microrec
