#include "update/delta_stream.hpp"

#include <cmath>

#include "common/status.hpp"

namespace microrec {

DeltaStream::DeltaStream(const RecModelSpec& model,
                         const DeltaStreamConfig& config)
    : model_(model), config_(config), rng_(config.seed) {
  MICROREC_CHECK(config_.update_row_qps >= 0.0);
  MICROREC_CHECK(config_.rows_per_batch >= 1);
  MICROREC_CHECK(config_.growth_fraction >= 0.0 &&
                 config_.growth_fraction <= 1.0);
  MICROREC_CHECK(!model_.tables.empty());
  zipf_.reserve(model_.tables.size());
  rows_.reserve(model_.tables.size());
  for (const auto& t : model_.tables) {
    zipf_.emplace_back(t.rows, config_.theta);
    rows_.push_back(t.rows);
  }
  if (config_.update_row_qps > 0.0) {
    // First batch arrives one exponential inter-batch gap after time 0.
    const double mean_gap_ns = kNanosPerSecond *
                               static_cast<double>(config_.rows_per_batch) /
                               config_.update_row_qps;
    const double u = std::max(rng_.NextDouble(), 1e-12);
    next_time_ns_ = -std::log(u) * mean_gap_ns;
  }
}

UpdateBatch DeltaStream::NextBatch() {
  MICROREC_CHECK(config_.update_row_qps > 0.0);
  UpdateBatch batch;
  batch.time_ns = next_time_ns_;
  batch.deltas.reserve(config_.rows_per_batch);
  for (std::uint32_t i = 0; i < config_.rows_per_batch; ++i) {
    const std::size_t t = rng_.NextBounded(model_.tables.size());
    EmbeddingDelta delta;
    delta.table_id = model_.tables[t].id;
    delta.seq = next_seq_++;
    const bool grow = config_.growth_fraction > 0.0 &&
                      rng_.NextDouble() < config_.growth_fraction;
    if (grow) {
      delta.row = rows_[t]++;  // append a brand-new row
      delta.grows_table = true;
      ++grown_rows_;
    } else {
      delta.row = zipf_[t].Sample(rng_);
    }
    // Skip the delta's vector: one Gaussian per element for an update, one
    // uniform (a single Next()) per element for an appended row. No reader
    // prices the values, so the generator only replays their draws; that
    // keeps every later row and timestamp of the stream unchanged.
    if (grow) {
      rng_.Discard(model_.tables[t].dim);
    } else {
      rng_.DiscardGaussians(model_.tables[t].dim);
    }
    batch.deltas.push_back(delta);
  }

  const double mean_gap_ns = kNanosPerSecond *
                             static_cast<double>(config_.rows_per_batch) /
                             config_.update_row_qps;
  const double u = std::max(rng_.NextDouble(), 1e-12);
  next_time_ns_ += -std::log(u) * mean_gap_ns;
  return batch;
}

}  // namespace microrec
