#include "update/delta_stream.hpp"

#include <cmath>

#include "common/status.hpp"

namespace microrec {

DeltaStream::DeltaStream(const RecModelSpec& model,
                         const DeltaStreamConfig& config)
    : model_(model), config_(config), rng_(config.seed) {
  MICROREC_CHECK(config_.update_row_qps >= 0.0);
  MICROREC_CHECK(!model_.tables.empty());
  zipf_.reserve(model_.tables.size());
  for (const auto& t : model_.tables) zipf_.emplace_back(t.rows, kRowTheta);
  if (config_.update_row_qps > 0.0) {
    // First batch arrives one exponential inter-batch gap after time 0.
    mean_gap_ns_ = kNanosPerSecond * static_cast<double>(kRowsPerBatch) /
                   config_.update_row_qps;
    const double u = std::max(rng_.NextDouble(), 1e-12);
    next_time_ns_ = -std::log(u) * mean_gap_ns_;
  }
}

UpdateBatch DeltaStream::NextBatch() {
  MICROREC_CHECK(config_.update_row_qps > 0.0);
  UpdateBatch batch;
  batch.time_ns = next_time_ns_;
  batch.deltas.reserve(kRowsPerBatch);
  for (std::uint32_t i = 0; i < kRowsPerBatch; ++i) {
    const std::size_t t = rng_.NextBounded(model_.tables.size());
    EmbeddingDelta delta;
    delta.table_id = model_.tables[t].id;
    delta.seq = next_seq_++;
    delta.row = zipf_[t].Sample(rng_);
    // Skip the delta's vector, one Gaussian per element. No reader prices
    // the values, so the generator only replays their draws; that keeps
    // every later row and timestamp of the stream unchanged.
    rng_.DiscardGaussians(model_.tables[t].dim);
    batch.deltas.push_back(delta);
  }

  const double u = std::max(rng_.NextDouble(), 1e-12);
  next_time_ns_ += -std::log(u) * mean_gap_ns_;
  return batch;
}

}  // namespace microrec
