// The card-level hybrid memory system: every HBM pseudo-channel, DDR
// channel, and on-chip bank is an independently addressable ChannelSim.
// A lookup batch (one inference's embedding reads) fans out across banks in
// parallel and serializes within each bank -- exactly the behaviour the
// paper's round analysis relies on.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "memsim/channel_sim.hpp"
#include "memsim/dram_timing.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace microrec {

/// One read directed at a specific bank.
struct BankAccess {
  std::uint32_t bank = 0;
  Bytes bytes = 0;
  std::uint64_t tag = 0;
};

/// Outcome of issuing a batch of accesses concurrently.
struct LookupBatchResult {
  Nanoseconds start_ns = 0.0;
  Nanoseconds completion_ns = 0.0;  ///< when the slowest bank finished
  std::vector<MemCompletion> completions;

  Nanoseconds latency_ns() const { return completion_ns - start_ns; }
};

/// Optional per-access trace record (enable via set_trace_enabled).
struct AccessTraceRecord {
  std::uint32_t bank = 0;
  Bytes bytes = 0;
  std::uint64_t tag = 0;
  Nanoseconds start_ns = 0.0;
  Nanoseconds completion_ns = 0.0;
};

/// Telemetry adapter for the memory system: resolves per-bank and per-kind
/// metric handles once at construction so the per-access cost is a couple
/// of pointer-chased adds. Install with HybridMemorySystem::set_telemetry;
/// with none installed (the default) the simulator is bit-for-bit the
/// pre-telemetry code path (counters never feed back into timing, so even
/// an installed adapter cannot change simulation results).
class MemsimTelemetry {
 public:
  /// Either sink may be null, but not both. The metrics registry receives
  /// the aggregate counters/histograms; the time-series recorder (when
  /// present) additionally gets per-bank busy/backlog timelines bucketed
  /// on simulated time.
  MemsimTelemetry(obs::MetricsRegistry* registry,
                  obs::TimeSeriesRecorder* timeseries,
                  const MemoryPlatformSpec& spec);
  MemsimTelemetry(obs::MetricsRegistry* registry,
                  const MemoryPlatformSpec& spec)
      : MemsimTelemetry(registry, nullptr, spec) {}

  /// `issue_ns` is when the batch issued the access; the bank started
  /// serving it `queue_delay_ns` later.
  void OnAccess(std::uint32_t bank, Bytes bytes, Nanoseconds issue_ns,
                Nanoseconds queue_delay_ns, Nanoseconds service_ns,
                Nanoseconds backlog_ns);

 private:
  struct BankHandles {
    obs::Counter* accesses = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Gauge* queue_backlog_ns = nullptr;  ///< backlog seen by the last access
    obs::Gauge* queue_backlog_peak_ns = nullptr;
    obs::TimeSeries* busy_ns = nullptr;      ///< kSum: service ns per bucket
    obs::TimeSeries* backlog_peak = nullptr; ///< kMax: backlog high-water
  };
  struct KindHandles {
    obs::Counter* accesses = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* queue_delay_ns = nullptr;
    obs::Histogram* service_ns = nullptr;
  };

  bool has_metrics_ = false;
  std::vector<BankHandles> banks_;
  std::vector<KindHandles> kinds_;  // indexed by MemoryKind of each bank
  std::vector<std::size_t> kind_of_bank_;
};

class HybridMemorySystem {
 public:
  /// `overlap` is forwarded to every ChannelSim (0 = paper-calibrated full
  /// serialization within a channel).
  explicit HybridMemorySystem(MemoryPlatformSpec spec, double overlap = 0.0);

  const MemoryPlatformSpec& spec() const { return spec_; }
  std::uint32_t num_banks() const {
    return static_cast<std::uint32_t>(channels_.size());
  }

  /// Issues all accesses at `start_ns`: banks proceed in parallel, accesses
  /// to the same bank serialize in the given order. Returns per-access and
  /// aggregate completion times.
  LookupBatchResult IssueBatch(std::span<const BankAccess> accesses,
                               Nanoseconds start_ns = 0.0);

  /// Braced-list convenience (init-lists don't convert to span).
  LookupBatchResult IssueBatch(std::initializer_list<BankAccess> accesses,
                               Nanoseconds start_ns = 0.0) {
    return IssueBatch(
        std::span<const BankAccess>(accesses.begin(), accesses.size()),
        start_ns);
  }

  /// Scratch-reusing variant for hot loops (one call per simulated item):
  /// clears and refills `out`'s vectors in place, so steady-state issue
  /// does no allocation at all. IssueBatch is exactly this plus a fresh
  /// result; both produce bit-identical completions.
  void IssueBatchInto(std::span<const BankAccess> accesses,
                      Nanoseconds start_ns, LookupBatchResult& out);

  /// Latency of the batch if the system were idle, without mutating
  /// simulation time (convenience for analytic callers).
  Nanoseconds BatchLatencyIdle(std::span<const BankAccess> accesses) const;

  const ChannelStats& bank_stats(std::uint32_t bank) const;
  const ChannelSim& bank(std::uint32_t bank) const;

  void Reset();

  void set_trace_enabled(bool enabled) { trace_enabled_ = enabled; }
  const std::vector<AccessTraceRecord>& trace() const { return trace_; }

  /// Installs (or clears, with nullptr) the telemetry adapter. Not owned;
  /// must outlive the memory system while installed. Pure observation:
  /// completions are identical with or without it.
  void set_telemetry(MemsimTelemetry* telemetry) { telemetry_ = telemetry; }
  const MemsimTelemetry* telemetry() const { return telemetry_; }

 private:
  MemoryPlatformSpec spec_;
  double overlap_;
  std::vector<ChannelSim> channels_;
  bool trace_enabled_ = false;
  std::vector<AccessTraceRecord> trace_;
  MemsimTelemetry* telemetry_ = nullptr;
};

/// Analytic round-based latency model (DESIGN.md section 5): the latency of
/// a concurrent lookup batch equals the largest per-bank sum of access
/// latencies. Matches the event-driven simulator exactly when the system
/// starts idle; validated by property tests.
class RoundLatencyModel {
 public:
  explicit RoundLatencyModel(MemoryPlatformSpec spec) : spec_(std::move(spec)) {}

  const MemoryPlatformSpec& spec() const { return spec_; }

  /// Latency of issuing `accesses` concurrently on an idle system.
  Nanoseconds BatchLatency(std::span<const BankAccess> accesses) const;

  /// Maximum number of accesses any single DRAM (HBM or DDR) bank receives:
  /// the paper's "DRAM access rounds".
  std::uint32_t DramAccessRounds(std::span<const BankAccess> accesses) const;

 private:
  MemoryPlatformSpec spec_;
};

}  // namespace microrec
