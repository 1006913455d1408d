// Host <-> FPGA input staging model.
//
// The paper prototypes with input features cached on the FPGA because the
// Vitis platform "does not yet support streaming from the host server to a
// Xilinx U280" (footnote 2). This model quantifies what streaming would
// cost over PCIe DMA so the repo can answer the natural follow-up: was the
// cached-input prototype hiding a bottleneck? (No -- per-query payloads
// are a few hundred bytes, orders of magnitude below link capacity at the
// accelerator's throughput; see bench_ablation_host_interface.)
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "faults/retry.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {

/// PCIe link parameters. Defaults approximate a Gen3 x16 link's practical
/// throughput with a fixed per-DMA descriptor cost.
struct PcieLinkSpec {
  double gigabytes_per_s = 12.0;
  Nanoseconds dma_setup_ns = 1500.0;

  /// Pure wire time for `bytes`.
  Nanoseconds WireTime(Bytes bytes) const {
    return static_cast<double>(bytes) / (gigabytes_per_s * 1e9) *
           kNanosPerSecond;
  }
};

/// How inference inputs reach the accelerator.
enum class InputMode {
  kCachedOnFpga,  ///< the paper's prototype: inputs preloaded, no transfer
  kStreamedPerItem,   ///< one DMA per query
  kStreamedBatched,   ///< queries coalesced into DMA batches
};

/// Bytes a single query occupies on the wire: one 32-bit index per lookup
/// plus any dense features (fp32 each).
Bytes QueryWireBytes(const RecModelSpec& model, std::uint32_t dense_features = 0);

struct HostTransferReport {
  InputMode mode = InputMode::kCachedOnFpga;
  Bytes bytes_per_query = 0;
  Nanoseconds latency_per_query = 0.0;   ///< added input latency per item
  double max_queries_per_s = 0.0;        ///< link-imposed throughput ceiling
};

/// Transfer cost of a given mode. `coalesce` is the DMA batch size for
/// kStreamedBatched (ignored otherwise).
HostTransferReport AnalyzeHostTransfer(const RecModelSpec& model,
                                       InputMode mode,
                                       const PcieLinkSpec& link = {},
                                       std::uint64_t coalesce = 256);

// ---------------------------------------------------------------------------
// Retry / timeout / exponential backoff for host DMA.
//
// A production host interface cannot assume the link is healthy: DMA
// engines stall (driver resets, SR-IOV contention, link retraining) and
// the host must time the attempt out, back off, and retry rather than hang
// the serving thread. The timeout/backoff/give-up math is the shared
// RetryPolicy (faults/retry.hpp) -- the same policy shape the scheduler
// uses for query re-admission -- so DMA retries and query retries cannot
// drift apart. The stall oracle is a plain function (a FaultSchedule's
// DmaStallEnd binds directly).
// ---------------------------------------------------------------------------

/// Link-health oracle: returns the end of the stall window covering `now`,
/// or `now` itself when the link is healthy at `now`.
/// FaultSchedule::DmaStallEnd has exactly this shape.
using LinkStallFn = std::function<Nanoseconds(Nanoseconds)>;

/// One transfer's fate under retries.
struct DmaTransferOutcome {
  bool success = false;
  std::uint32_t attempts = 0;
  Nanoseconds issue_ns = 0.0;
  Nanoseconds completion_ns = 0.0;  ///< success: data landed; else gave up
  Nanoseconds backoff_total_ns = 0.0;

  Nanoseconds latency_ns() const { return completion_ns - issue_ns; }
};

struct DmaRetryReport {
  std::vector<DmaTransferOutcome> transfers;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;  ///< gave up after max_attempts
  Nanoseconds healthy_latency_ns = 0.0;  ///< setup + wire, no faults
  Nanoseconds added_latency_mean_ns = 0.0;  ///< successes only, vs healthy
  Nanoseconds added_latency_max_ns = 0.0;
};

/// Runs each transfer (issued at the given times, `bytes_per_transfer`
/// each) through the retry state machine. An attempt that starts inside a
/// stall window waits for the window's end if that is within the attempt
/// timeout; otherwise it times out, backs off per the policy, and retries.
/// With a null/healthy stall oracle every transfer succeeds on attempt 1
/// at exactly the healthy latency.
StatusOr<DmaRetryReport> SimulateDmaWithRetries(
    const PcieLinkSpec& link, Bytes bytes_per_transfer,
    const std::vector<Nanoseconds>& issue_times, const RetryPolicy& policy,
    const LinkStallFn& stall = nullptr);

}  // namespace microrec
