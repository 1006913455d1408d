#include "memsim/hybrid_memory.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace microrec {

MemsimTelemetry::MemsimTelemetry(obs::MetricsRegistry* registry,
                                 obs::TimeSeriesRecorder* timeseries,
                                 const MemoryPlatformSpec& spec)
    : has_metrics_(registry != nullptr) {
  MICROREC_CHECK(registry != nullptr || timeseries != nullptr);
  // Queue delays span sub-ns (idle bank) to ~ms (saturated run): 96 buckets
  // at 1.25x growth cover 0.1 ns .. ~200 us.
  obs::HistogramOptions delay_opts{0.1, 1.25, 96};
  banks_.resize(spec.total_banks());
  kind_of_bank_.resize(spec.total_banks());
  kinds_.resize(3);
  if (registry != nullptr) {
    for (const MemoryKind kind :
         {MemoryKind::kHbm, MemoryKind::kDdr, MemoryKind::kOnChip}) {
      const auto k = static_cast<std::size_t>(kind);
      const obs::MetricLabels labels{{"kind", MemoryKindName(kind)}};
      kinds_[k].accesses = &registry->counter("memsim_accesses_total", labels);
      kinds_[k].bytes = &registry->counter("memsim_bytes_read_total", labels);
      kinds_[k].queue_delay_ns =
          &registry->histogram("memsim_queue_delay_ns", labels, delay_opts);
      kinds_[k].service_ns =
          &registry->histogram("memsim_service_ns", labels, delay_opts);
    }
  }
  for (std::uint32_t b = 0; b < spec.total_banks(); ++b) {
    const MemoryKind kind = spec.KindOfBank(b);
    kind_of_bank_[b] = static_cast<std::size_t>(kind);
    const obs::MetricLabels labels{{"bank", std::to_string(b)},
                                   {"kind", MemoryKindName(kind)}};
    if (registry != nullptr) {
      banks_[b].accesses =
          &registry->counter("memsim_bank_accesses_total", labels);
      banks_[b].bytes = &registry->counter("memsim_bank_bytes_total", labels);
      banks_[b].queue_backlog_ns =
          &registry->gauge("memsim_bank_queue_backlog_ns", labels);
      banks_[b].queue_backlog_peak_ns =
          &registry->gauge("memsim_bank_queue_backlog_peak_ns", labels);
    }
    if (timeseries != nullptr) {
      banks_[b].busy_ns = &timeseries->series("memsim_bank_busy_ns", labels,
                                              obs::SeriesKind::kSum);
      banks_[b].backlog_peak = &timeseries->series(
          "memsim_bank_queue_ns", labels, obs::SeriesKind::kMax);
    }
  }
}

void MemsimTelemetry::OnAccess(std::uint32_t bank, Bytes bytes,
                               Nanoseconds issue_ns,
                               Nanoseconds queue_delay_ns,
                               Nanoseconds service_ns,
                               Nanoseconds backlog_ns) {
  MICROREC_CHECK(bank < banks_.size());
  BankHandles& h = banks_[bank];
  if (has_metrics_) {
    h.accesses->Inc();
    h.bytes->Inc(bytes);
    h.queue_backlog_ns->Set(backlog_ns);
    h.queue_backlog_peak_ns->Max(backlog_ns);
    KindHandles& k = kinds_[kind_of_bank_[bank]];
    k.accesses->Inc();
    k.bytes->Inc(bytes);
    k.queue_delay_ns->Observe(queue_delay_ns);
    k.service_ns->Observe(service_ns);
  }
  if (h.busy_ns != nullptr) {
    // Busy time lands in the bucket where the bank *started* serving;
    // backlog is sampled at issue time (what the arriving access saw).
    h.busy_ns->Observe(issue_ns + queue_delay_ns, service_ns);
    h.backlog_peak->Observe(issue_ns, backlog_ns);
  }
}

HybridMemorySystem::HybridMemorySystem(MemoryPlatformSpec spec, double overlap)
    : spec_(std::move(spec)), overlap_(overlap) {
  channels_.reserve(spec_.total_banks());
  for (std::uint32_t b = 0; b < spec_.total_banks(); ++b) {
    channels_.emplace_back(spec_.TimingOfBank(b), overlap_);
  }
}

LookupBatchResult HybridMemorySystem::IssueBatch(
    std::span<const BankAccess> accesses, Nanoseconds start_ns) {
  LookupBatchResult result;
  IssueBatchInto(accesses, start_ns, result);
  return result;
}

void HybridMemorySystem::IssueBatchInto(std::span<const BankAccess> accesses,
                                        Nanoseconds start_ns,
                                        LookupBatchResult& out) {
  out.start_ns = start_ns;
  out.completion_ns = start_ns;
  out.completions.clear();
  out.completions.reserve(accesses.size());

  // Bank bounds are validated once up front, so the serve loops below run
  // check-free. (The contract is unchanged: an out-of-range bank aborts;
  // it now aborts before any access of the batch is served.)
  const std::size_t num_banks = channels_.size();
  for (const auto& access : accesses) {
    MICROREC_CHECK(access.bank < num_banks);
  }

  // Fast path: no telemetry, no trace -- the common case for every
  // serving simulation, and the loop the parallel experiment engine
  // hammers from every worker's private memory system. One branch decides,
  // then the loop body is just ChannelSim arithmetic and a push into
  // pre-reserved storage.
  if (telemetry_ == nullptr && !trace_enabled_) {
    Nanoseconds worst = out.completion_ns;
    for (const auto& access : accesses) {
      const MemCompletion done = channels_[access.bank].Serve(
          MemRequest{start_ns, access.bytes, access.tag, 1.0});
      if (done.completion_ns > worst) worst = done.completion_ns;
      out.completions.push_back(done);
    }
    out.completion_ns = worst;
    return;
  }

  for (const auto& access : accesses) {
    Nanoseconds backlog_ns = 0.0;
    if (telemetry_ != nullptr) {
      backlog_ns = std::max(0.0, channels_[access.bank].free_at_ns() - start_ns);
    }
    const MemCompletion done = channels_[access.bank].Serve(
        MemRequest{start_ns, access.bytes, access.tag, 1.0});
    if (telemetry_ != nullptr) {
      telemetry_->OnAccess(access.bank, access.bytes, start_ns,
                           done.queue_delay_ns,
                           done.completion_ns - done.start_ns, backlog_ns);
    }
    out.completion_ns = std::max(out.completion_ns, done.completion_ns);
    if (trace_enabled_) {
      trace_.push_back(AccessTraceRecord{access.bank, access.bytes, access.tag,
                                         done.start_ns, done.completion_ns});
    }
    out.completions.push_back(done);
  }
}

Nanoseconds HybridMemorySystem::BatchLatencyIdle(
    std::span<const BankAccess> accesses) const {
  return RoundLatencyModel(spec_).BatchLatency(accesses);
}

const ChannelStats& HybridMemorySystem::bank_stats(std::uint32_t bank) const {
  MICROREC_CHECK(bank < channels_.size());
  return channels_[bank].stats();
}

const ChannelSim& HybridMemorySystem::bank(std::uint32_t bank) const {
  MICROREC_CHECK(bank < channels_.size());
  return channels_[bank];
}

void HybridMemorySystem::Reset() {
  for (auto& ch : channels_) ch.Reset();
  trace_.clear();
}

Nanoseconds RoundLatencyModel::BatchLatency(
    std::span<const BankAccess> accesses) const {
  std::vector<Nanoseconds> per_bank(spec_.total_banks(), 0.0);
  for (const auto& access : accesses) {
    MICROREC_CHECK(access.bank < spec_.total_banks());
    per_bank[access.bank] +=
        spec_.TimingOfBank(access.bank).AccessLatency(access.bytes);
  }
  Nanoseconds worst = 0.0;
  for (Nanoseconds t : per_bank) worst = std::max(worst, t);
  return worst;
}

std::uint32_t RoundLatencyModel::DramAccessRounds(
    std::span<const BankAccess> accesses) const {
  std::vector<std::uint32_t> per_bank(spec_.total_banks(), 0);
  std::uint32_t worst = 0;
  for (const auto& access : accesses) {
    MICROREC_CHECK(access.bank < spec_.total_banks());
    if (spec_.KindOfBank(access.bank) == MemoryKind::kOnChip) continue;
    worst = std::max(worst, ++per_bank[access.bank]);
  }
  return worst;
}

}  // namespace microrec
