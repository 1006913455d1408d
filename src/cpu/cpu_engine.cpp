#include "cpu/cpu_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "obs/prof/profiler.hpp"
#include "tensor/activations.hpp"
#include "tensor/gather.hpp"
#include "tensor/gemm.hpp"

namespace microrec {

namespace {

/// Hands the whole pages inside [data, data + bytes) back to the OS. The
/// range stays mapped; its contents are lost and read back as zeros.
void DiscardPages(const void* data, std::size_t bytes) {
#ifdef __linux__
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin = (first + page - 1) / page * page;
  const std::uintptr_t end = (first + bytes) / page * page;
  if (end > begin) {
    madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

Nanoseconds NowNs() {
  return static_cast<Nanoseconds>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

CpuEngine::CpuEngine(const RecModelSpec& model, std::uint64_t max_physical_rows,
                     FrameworkOverheadParams overhead, std::size_t threads)
    : model_(model),
      mlp_(MlpModel::Create(model.mlp, MlpWeightSeed(model))),
      overhead_(overhead),
      pool_(threads) {
  MICROREC_CHECK(model_.Validate().ok());
  tables_.reserve(model_.tables.size());
  for (const auto& spec : model_.tables) {
    tables_.push_back(EmbeddingTable::Materialize(
        spec, TableContentSeed(model_, spec.id), max_physical_rows));
    // Gather phase work per query, declared once so the hot path only
    // multiplies by the batch size: row data streamed in (GatherBytes) and
    // sum-pooling adds (lookups-1 vector adds per table; single-lookup
    // tables are a pure copy).
    const std::uint64_t lookups = model_.lookups_per_table;
    gather_bytes_per_query_ +=
        static_cast<double>(GatherBytes(lookups, spec.dim));
    if (lookups > 1) {
      gather_flops_per_query_ +=
          static_cast<double>((lookups - 1)) * spec.dim;
    }
  }
}

CpuEngine::~CpuEngine() {
  // The tables are the process's largest allocations. Once glibc has freed
  // one of them, its dynamic mmap threshold serves the next ones from the
  // brk heap, where free() keeps their pages resident: a process that
  // rebuilds its engine would hold some of the old tables' pages beside
  // the new ones, in amounts set by heap layout alone. Drop the pages
  // before the tables' storage is freed.
  for (const EmbeddingTable& table : tables_) {
    const PackedTableView rows = table.packed_view();
    DiscardPages(rows.data, rows.rows * rows.stride * sizeof(float));
  }
}

std::size_t CpuEngine::RowsPerShard(std::size_t batch) const {
  const std::size_t workers = pool_.num_threads();
  return batch / workers + (batch % workers != 0);
}

void CpuEngine::ReserveScratch(InferenceScratch& scratch,
                               std::size_t max_batch) const {
  if (scratch.arenas.size() < pool_.num_threads()) {
    scratch.arenas.resize(pool_.num_threads());
  }
  // At least one row: InferOne runs through arenas[0] too.
  const std::size_t rows = RowsPerShard(std::max<std::size_t>(max_batch, 1));
  for (InferenceArena& arena : scratch.arenas) {
    arena.features.ResizeUninit(rows, feature_length());
    // Replay the ping-pong schedule so each buffer's capacity covers every
    // layer width it will ever host at this shard size.
    MatrixF* bufs[2] = {&arena.mlp.a, &arena.mlp.b};
    for (std::size_t i = 0; i < model_.mlp.hidden.size(); ++i) {
      bufs[i % 2]->ResizeUninit(rows, model_.mlp.hidden[i]);
    }
  }
  scratch.probs.reserve(max_batch);
}

void CpuEngine::AddGatherWork(obs::prof::HwProfiler* profiler,
                              std::size_t queries) const {
  if (profiler == nullptr) return;
  const auto n = static_cast<double>(queries);
  profiler->AddPhaseWork("gather", gather_bytes_per_query_ * n,
                         gather_flops_per_query_ * n);
}

void CpuEngine::GatherQuery(const SparseQuery& query,
                            std::span<float> out) const {
  const std::uint32_t lookups = model_.lookups_per_table;
  MICROREC_CHECK(query.indices.size() == tables_.size() * lookups);
  const std::span<const std::uint64_t> indices(query.indices);
  std::size_t offset = 0;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const std::uint32_t dim = tables_[t].spec().dim;
    MICROREC_CHECK(offset + dim <= out.size());
    GatherSumPoolAuto(tables_[t].packed_view(),
                      indices.subspan(t * lookups, lookups),
                      out.subspan(offset, dim));
    offset += dim;
  }
  MICROREC_CHECK(offset == out.size());
}

void CpuEngine::GatherQueryReference(const SparseQuery& query,
                                     std::span<float> out) const {
  const std::uint32_t lookups = model_.lookups_per_table;
  MICROREC_CHECK(query.indices.size() == tables_.size() * lookups);
  std::size_t offset = 0;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const std::uint32_t dim = tables_[t].spec().dim;
    MICROREC_CHECK(offset + dim <= out.size());
    float* dst = out.data() + offset;
    if (lookups == 1) {
      const auto vec = tables_[t].Lookup(query.indices[t]);
      std::memcpy(dst, vec.data(), dim * sizeof(float));
    } else {
      // Multi-lookup models (DLRM-style) sum-pool the vectors per table.
      std::memset(dst, 0, dim * sizeof(float));
      for (std::uint32_t l = 0; l < lookups; ++l) {
        const auto vec = tables_[t].Lookup(query.indices[t * lookups + l]);
        for (std::uint32_t d = 0; d < dim; ++d) dst[d] += vec[d];
      }
    }
    offset += dim;
  }
  MICROREC_CHECK(offset == out.size());
}

void CpuEngine::EmbeddingLayer(std::span<const SparseQuery> queries,
                               MatrixF& features) const {
  obs::prof::ProfScope prof_scope(profiler_, "gather");
  AddGatherWork(profiler_, queries.size());
  features.ResizeUninit(queries.size(), feature_length());
  pool_.ParallelFor(queries.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      GatherQuery(queries[i], features.row(i));
    }
  });
}

void CpuEngine::InferShard(std::span<const SparseQuery> queries,
                           std::span<float> probs, InferenceArena& arena,
                           obs::prof::HwProfiler* profiler) const {
  const Nanoseconds t0 = NowNs();
  {
    obs::prof::ProfScope prof_scope(profiler, "gather");
    AddGatherWork(profiler, queries.size());
    arena.features.ResizeUninit(queries.size(), feature_length());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      GatherQuery(queries[i], arena.features.row(i));
    }
  }
  const Nanoseconds t1 = NowNs();
  mlp_.ForwardBatch(arena.features, arena.mlp, probs, profiler);
  arena.gather_ns = t1 - t0;
  arena.mlp_ns = NowNs() - t1;
}

std::span<const float> CpuEngine::InferBatch(
    std::span<const SparseQuery> queries, InferenceScratch& scratch,
    CpuBatchTiming* timing) const {
  obs::prof::ProfScope prof_scope(profiler_, "batch");
  const Nanoseconds t0 = NowNs();
  const std::size_t workers = pool_.num_threads();
  if (scratch.arenas.size() < workers) scratch.arenas.resize(workers);
  scratch.probs.resize(queries.size());
  // The profiler is single-threaded: only a 1-thread engine, whose lone
  // shard runs on this thread, attributes the phases below "batch".
  obs::prof::HwProfiler* shard_profiler = workers == 1 ? profiler_ : nullptr;
  const std::size_t rows = RowsPerShard(queries.size());
  const std::span<float> probs(scratch.probs);
  pool_.ParallelFor(queries.size(), rows,
                    [&](std::size_t begin, std::size_t end) {
                      InferShard(queries.subspan(begin, end - begin),
                                 probs.subspan(begin, end - begin),
                                 scratch.arenas[begin / rows], shard_profiler);
                    });
  if (profiler_ != nullptr) profiler_->RecordBatch(NowNs() - t0);
  if (timing != nullptr) {
    timing->embedding_ns = 0.0;
    timing->dnn_ns = 0.0;
    for (std::size_t begin = 0; begin < queries.size(); begin += rows) {
      const InferenceArena& arena = scratch.arenas[begin / rows];
      if (arena.gather_ns + arena.mlp_ns >
          timing->embedding_ns + timing->dnn_ns) {
        timing->embedding_ns = arena.gather_ns;
        timing->dnn_ns = arena.mlp_ns;
      }
    }
    timing->overhead_ns =
        overhead_.EmbeddingOverhead(
            static_cast<std::uint32_t>(tables_.size())) +
        overhead_.DnnOverhead(
            static_cast<std::uint32_t>(model_.mlp.hidden.size()));
  }
  return scratch.probs;
}

std::vector<float> CpuEngine::InferBatch(std::span<const SparseQuery> queries,
                                         CpuBatchTiming* timing) const {
  InferenceScratch scratch;
  InferBatch(queries, scratch, timing);
  return std::move(scratch.probs);
}

float CpuEngine::InferOne(const SparseQuery& query,
                          InferenceScratch& scratch) const {
  if (scratch.arenas.empty()) scratch.arenas.resize(1);
  InferenceArena& arena = scratch.arenas.front();
  arena.features.ResizeUninit(1, feature_length());
  {
    obs::prof::ProfScope prof_scope(profiler_, "gather");
    AddGatherWork(profiler_, 1);
    GatherQuery(query, arena.features.row(0));
  }
  return mlp_.ForwardOne(arena.features.row(0), arena.mlp, profiler_);
}

float CpuEngine::InferOne(const SparseQuery& query) const {
  InferenceScratch scratch;
  return InferOne(query, scratch);
}

std::vector<float> CpuEngine::InferBatchReference(
    std::span<const SparseQuery> queries, CpuBatchTiming* timing) const {
  // Frozen pre-optimization path; structure deliberately preserved:
  // fresh feature matrix, scalar per-element pooling, unfused GEMM with a
  // separate bias + ReLU sweep, and a reallocated activation matrix per
  // layer. Changing this defeats the wall-clock speedup gate.
  MatrixF features;
  const Nanoseconds t0 = NowNs();
  features.Resize(queries.size(), feature_length());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    GatherQueryReference(queries[i], features.row(i));
  }
  const Nanoseconds t1 = NowNs();
  MatrixF activ = features;
  MatrixF next;
  for (std::size_t i = 0; i < model_.mlp.hidden.size(); ++i) {
    GemmAuto(activ, mlp_.weights(i), next);
    const std::span<const float> bias = mlp_.biases(i);
    for (std::size_t r = 0; r < next.rows(); ++r) {
      auto row = next.row(r);
      for (std::size_t j = 0; j < row.size(); ++j) row[j] += bias[j];
      ReluInPlace(row);
    }
    activ = std::move(next);
    next = MatrixF();
  }
  std::vector<float> probs(activ.rows());
  const MatrixF& head = mlp_.head_weights();
  for (std::size_t r = 0; r < activ.rows(); ++r) {
    float logit = mlp_.head_bias();
    const auto row = activ.row(r);
    for (std::size_t j = 0; j < row.size(); ++j) {
      logit += row[j] * head(j, 0);
    }
    probs[r] = Sigmoid(logit);
  }
  const Nanoseconds t2 = NowNs();
  if (timing != nullptr) {
    timing->embedding_ns = t1 - t0;
    timing->dnn_ns = t2 - t1;
    timing->overhead_ns =
        overhead_.EmbeddingOverhead(
            static_cast<std::uint32_t>(tables_.size())) +
        overhead_.DnnOverhead(
            static_cast<std::uint32_t>(model_.mlp.hidden.size()));
  }
  return probs;
}

CpuBatchTiming CpuEngine::MeasureEmbeddingLayer(
    std::span<const SparseQuery> queries) const {
  MatrixF features;
  const Nanoseconds t0 = NowNs();
  EmbeddingLayer(queries, features);
  const Nanoseconds t1 = NowNs();
  CpuBatchTiming timing;
  timing.embedding_ns = t1 - t0;
  timing.overhead_ns = overhead_.EmbeddingOverhead(
      static_cast<std::uint32_t>(tables_.size()));
  return timing;
}

}  // namespace microrec
