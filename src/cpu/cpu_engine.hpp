// CPU baseline inference engine (the system the paper compares against:
// TensorFlow Serving on a 16-vCPU server).
//
// The engine performs *real* work on the host -- random gathers over
// materialized embedding tables and blocked-GEMM MLP inference -- and adds
// the calibrated framework-overhead model on top, reproducing the baseline's
// structure: per-batch operator dispatch + memory-bound embedding stage +
// compute-bound FC stage. Wall-clock measurements on this host are reported
// alongside the paper's published numbers (cpu/paper_baseline.hpp).
//
// The hot path is built for hardware speed: gathers run through the
// vectorized gather/sum-pool kernel over the packed row layout
// (tensor/gather.hpp), the MLP through the fused-epilogue register-tiled
// GEMM (tensor/gemm.hpp), each batch's rows are split once into one shard
// per pool worker that runs gather, MLP and head over its rows, and all
// intermediate state lives in a caller-held InferenceScratch so
// steady-state batches perform zero heap allocations at any thread count.
// The pre-optimization path is kept as InferBatchReference -- the
// correctness ground truth for tests and the honest "before" baseline the
// wall-clock benches gate their speedup against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "cpu/overhead_model.hpp"
#include "embedding/embedding_table.hpp"
#include "nn/mlp.hpp"
#include "tensor/matrix.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

namespace microrec {

namespace obs::prof {
class HwProfiler;
}  // namespace obs::prof

/// Per-batch timing breakdown. When a batch runs as several shards,
/// embedding_ns and dnn_ns are those of the slowest shard (the one whose
/// gather + MLP took longest).
struct CpuBatchTiming {
  Nanoseconds embedding_ns = 0.0;  ///< measured gather + concat
  Nanoseconds dnn_ns = 0.0;        ///< measured GEMM + activations
  Nanoseconds overhead_ns = 0.0;   ///< modelled framework dispatch

  Nanoseconds total_ns() const { return embedding_ns + dnn_ns + overhead_ns; }
};

/// One batch shard's working set: its rows' features, the MLP's ping-pong
/// activation buffers, and the shard's gather and MLP times of the last
/// batch.
struct InferenceArena {
  MatrixF features;  ///< [shard rows x feature_len]
  MlpScratch mlp;
  Nanoseconds gather_ns = 0.0;
  Nanoseconds mlp_ns = 0.0;
};

/// Per-caller scratch for the inference hot path: one arena per pool
/// worker (InferBatch's shard s works in arenas[s]; InferOne uses
/// arenas[0]) and the output probabilities. Buffers grow to high-water
/// marks and are then reused, so steady-state InferBatch/InferOne calls
/// perform zero heap allocations at any thread count (test-enforced in
/// zero_alloc_test). Not thread-safe: use one scratch per calling thread.
struct InferenceScratch {
  std::vector<InferenceArena> arenas;
  std::vector<float> probs;  ///< one probability per query
};

class CpuEngine {
 public:
  /// Materializes the model's tables (capped per table by
  /// `max_physical_rows`) and builds the float MLP. `threads` sizes the
  /// worker pool each batch is sharded over.
  CpuEngine(const RecModelSpec& model, std::uint64_t max_physical_rows,
            FrameworkOverheadParams overhead = {}, std::size_t threads = 1);
  /// Hands the tables' pages back to the OS before freeing them.
  ~CpuEngine();

  const RecModelSpec& model() const { return model_; }
  const MlpModel& mlp() const { return mlp_; }
  std::span<const EmbeddingTable> tables() const { return tables_; }

  /// Attaches a hardware profiler (obs/prof/): InferBatch/InferOne phases
  /// (gather / gemm / head_sigmoid / batch) accumulate perf counters,
  /// declared work, and per-batch latency into it. nullptr (the default)
  /// detaches: the hot path then pays one pointer test per phase, performs
  /// no reads or allocations, and outputs are bit-identical -- the same
  /// identity discipline as SpanTracer, enforced in prof_test. The
  /// profiler is single-threaded and its counters cover the calling thread
  /// only, so on an engine with more than one thread InferBatch records
  /// just the `batch` phase and the batch latency, and no worker touches
  /// the profiler: profile with a 1-thread engine for per-phase numbers.
  void set_profiler(obs::prof::HwProfiler* profiler) {
    profiler_ = profiler;
  }
  obs::prof::HwProfiler* profiler() const { return profiler_; }

  /// Pre-sizes one arena per worker for its share of batches up to
  /// `max_batch` so even the first InferBatch call through the scratch is
  /// allocation-free.
  void ReserveScratch(InferenceScratch& scratch, std::size_t max_batch) const;

  /// Gathers + concatenates embeddings for a batch into `features`
  /// ([batch x feature_len]), rows sharded over the pool. This is the
  /// embedding layer in isolation (Table 4's measured quantity).
  void EmbeddingLayer(std::span<const SparseQuery> queries,
                      MatrixF& features) const;

  /// Full inference over a batch through caller-held scratch; returns a
  /// view of scratch.probs (valid until the next call with that scratch).
  /// The rows are split once into one shard per pool worker; each shard
  /// gathers its rows into its own arena and runs the MLP and head over
  /// them. Rows are independent through every layer and both GEMM kernels
  /// sum each element in the same order for any row count, so outputs are
  /// bit-identical at any thread count. A lone shard (a 1-thread engine)
  /// runs inline on the caller. Fills `timing` if non-null. Zero heap
  /// allocations in steady state. Several threads may call this at once,
  /// each with its own scratch.
  std::span<const float> InferBatch(std::span<const SparseQuery> queries,
                                    InferenceScratch& scratch,
                                    CpuBatchTiming* timing = nullptr) const;

  /// Convenience wrapper owning a transient scratch.
  std::vector<float> InferBatch(std::span<const SparseQuery> queries,
                                CpuBatchTiming* timing = nullptr) const;

  /// Single-item forward through caller-held scratch: the real batch-1
  /// latency path (vectorized GEMV, no per-call allocation).
  float InferOne(const SparseQuery& query, InferenceScratch& scratch) const;

  /// Convenience wrapper owning a transient scratch.
  float InferOne(const SparseQuery& query) const;

  /// Embedding layer timing alone (measured + overhead) for a batch.
  CpuBatchTiming MeasureEmbeddingLayer(
      std::span<const SparseQuery> queries) const;

  /// The frozen pre-optimization implementation: scalar per-element
  /// gather/pooling via EmbeddingTable::Lookup, unfused GEMM with a
  /// separate bias+ReLU sweep, and fresh buffers every layer. Kept
  /// bit-for-bit as correctness ground truth and as the baseline the
  /// wall-clock benches measure the vectorized path's speedup against.
  std::vector<float> InferBatchReference(std::span<const SparseQuery> queries,
                                         CpuBatchTiming* timing = nullptr)
      const;

  std::uint32_t feature_length() const { return model_.FeatureLength(); }

 private:
  /// Rows per shard when a batch of `batch` rows is split over the pool.
  std::size_t RowsPerShard(std::size_t batch) const;

  /// One InferBatch shard: gathers `queries` into arena.features, then
  /// runs the MLP and head into `probs`, timing both into the arena.
  /// `profiler` is non-null only when the shard runs on the caller of a
  /// 1-thread engine.
  void InferShard(std::span<const SparseQuery> queries, std::span<float> probs,
                  InferenceArena& arena,
                  obs::prof::HwProfiler* profiler) const;

  /// Declares the gather phase's work for `queries` queries to `profiler`
  /// (no-op when null).
  void AddGatherWork(obs::prof::HwProfiler* profiler,
                     std::size_t queries) const;

  /// Writes the concatenated feature vector of one query into `out` via
  /// the dispatched vectorized gather kernel.
  void GatherQuery(const SparseQuery& query, std::span<float> out) const;

  /// Pre-optimization gather (memcpy + scalar sum-pool over Lookup()).
  void GatherQueryReference(const SparseQuery& query,
                            std::span<float> out) const;

  RecModelSpec model_;
  std::vector<EmbeddingTable> tables_;
  MlpModel mlp_;
  FrameworkOverheadParams overhead_;
  mutable ThreadPool pool_;
  obs::prof::HwProfiler* profiler_ = nullptr;
  double gather_bytes_per_query_ = 0.0;  ///< row data read per query
  double gather_flops_per_query_ = 0.0;  ///< pooling adds per query
};

}  // namespace microrec
