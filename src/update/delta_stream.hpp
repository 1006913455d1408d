// Delta streams: deterministic row-level embedding updates.
//
// Production recommendation serving continuously folds trained parameter
// deltas into the serving tables while answering queries (HugeCTR's
// inference parameter server treats online refresh as a first-class serving
// concern). This module generates that traffic synthetically: row updates
// spread uniformly over the model's tables, timestamped by a Poisson process
// at a configured update rate, and fully deterministic given the seed so
// replays are exact.
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {

struct UpdateBatch;

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
  /// Row updates per UpdateBatch (the unit of application and publishing).
  static constexpr std::uint32_t kRowsPerBatch = 64;

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
  Nanoseconds mean_gap_ns_ = 0.0;  // between batches; 0 without updates
  Nanoseconds next_time_ns_ = 0.0;
};

/// A group of row updates shipped (and later published) together. An
/// update names only its table: it is priced by the bytes it writes to the
/// table's bank (UpdateWriteInjector), never by the row or the values
/// written.
struct UpdateBatch {
  Nanoseconds time_ns = 0.0;  ///< generation timestamp of the batch
  /// Index into the model's `tables` of each update's table.
  std::array<std::uint32_t, DeltaStream::kRowsPerBatch> tables{};

  static constexpr std::size_t size() { return DeltaStream::kRowsPerBatch; }
};

}  // namespace microrec
