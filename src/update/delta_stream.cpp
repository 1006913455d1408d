#include "update/delta_stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.hpp"

namespace microrec {

DeltaStream::DeltaStream(const RecModelSpec& model,
                         const DeltaStreamConfig& config)
    : model_(model), config_(config), rng_(config.seed) {
  MICROREC_CHECK(config_.update_row_qps >= 0.0);
  MICROREC_CHECK(!model_.tables.empty());
  MICROREC_CHECK(model_.tables.size() <=
                 std::numeric_limits<std::uint32_t>::max());
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
  for (std::uint32_t& table : batch.tables) {
    table = static_cast<std::uint32_t>(rng_.NextBounded(model_.tables.size()));
    const TableSpec& spec = model_.tables[table];
    // Skip the update's target row and its vector. No reader prices either,
    // so the generator only replays their draws, which keeps every later
    // table choice and timestamp of the stream unchanged: one uniform for
    // the row (a Zipf(0.9) rank over the table's rows; a one-row table
    // draws none) and one Gaussian per element.
    if (spec.rows > 1) rng_.Next();
    rng_.DiscardGaussians(spec.dim);
  }

  const double u = std::max(rng_.NextDouble(), 1e-12);
  next_time_ns_ += -std::log(u) * mean_gap_ns_;
  return batch;
}

}  // namespace microrec
