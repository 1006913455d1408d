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

#include "common/units.hpp"
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

}  // namespace microrec
