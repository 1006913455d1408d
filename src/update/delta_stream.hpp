// Delta streams: deterministic row-level embedding updates.
//
// Production recommendation serving continuously folds trained parameter
// deltas into the serving tables while answering queries (HugeCTR's
// inference parameter server treats online refresh as a first-class serving
// concern). This module generates that traffic synthetically: row updates
// whose target rows are Zipf-skewed like real gradient traffic (hot
// users/items train most), timestamped by a Poisson process at a configured
// update rate, and fully deterministic given the seed so replays are exact.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "common/zipf.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {

/// One row-level update to one table. A delta carries no vector: an update
/// is priced by the bytes it writes to the row's bank (UpdateWriteInjector),
/// never by the values written.
struct EmbeddingDelta {
  std::uint32_t table_id = 0;
  std::uint64_t row = 0;
  std::uint64_t seq = 0;  ///< global, strictly increasing
};

/// A group of deltas shipped (and later published) together.
struct UpdateBatch {
  std::vector<EmbeddingDelta> deltas;
  Nanoseconds time_ns = 0.0;  ///< generation timestamp of the batch

  std::size_t size() const { return deltas.size(); }
};

struct DeltaStreamConfig {
  /// Row-updates per second across all tables (0 = no update traffic).
  double update_row_qps = 1.0e6;
  std::uint64_t seed = 1;
};

/// Deterministic generator of update batches over a model's tables.
/// Batch timestamps follow a Poisson process whose mean rate is
/// update_row_qps / kRowsPerBatch batches per second.
class DeltaStream {
 public:
  /// Deltas per UpdateBatch (the unit of application and publishing).
  static constexpr std::uint32_t kRowsPerBatch = 64;
  /// Zipf exponent of the target-row draw.
  static constexpr double kRowTheta = 0.9;

  /// The model spec is stored by value: streams routinely outlive the spec
  /// they were built from (long-running serving sweeps).
  DeltaStream(const RecModelSpec& model, const DeltaStreamConfig& config);

  const RecModelSpec& model() const { return model_; }
  const DeltaStreamConfig& config() const { return config_; }

  /// Generates the next batch. Timestamps are strictly increasing.
  UpdateBatch NextBatch();

  /// The timestamp the next NextBatch() call will carry.
  Nanoseconds next_batch_time_ns() const { return next_time_ns_; }

 private:
  RecModelSpec model_;
  DeltaStreamConfig config_;
  Rng rng_;
  std::vector<ZipfSampler> zipf_;  // one per table
  std::uint64_t next_seq_ = 0;
  Nanoseconds mean_gap_ns_ = 0.0;  // between batches; 0 without updates
  Nanoseconds next_time_ns_ = 0.0;
};

}  // namespace microrec
