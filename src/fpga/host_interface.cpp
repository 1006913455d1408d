#include "fpga/host_interface.hpp"

#include <limits>

#include "common/status.hpp"

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

}  // namespace microrec
