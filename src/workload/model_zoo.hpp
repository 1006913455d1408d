// Synthetic model zoo matching the paper's published model parameters.
//
// The two Alibaba production models are proprietary; the paper publishes
// their table counts, concatenated feature lengths, hidden-layer sizes and
// total embedding storage (Table 1), the on-chip/DRAM table split and
// access-round counts (Table 3), and qualitative size facts ("some tables
// only consist of 100 4-dimensional vectors, large tables contain up to
// hundreds of millions of entries", vector lengths 4-64). The generators
// here produce deterministic table sets satisfying all of those published
// constraints; DESIGN.md section 2 records this substitution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "embedding/table_spec.hpp"
#include "nn/mlp.hpp"

namespace microrec {

/// A complete deep recommendation model: embedding tables + top MLP.
struct RecModelSpec {
  std::string name;
  std::vector<TableSpec> tables;
  MlpSpec mlp;  ///< input_dim == sum of table dims (no bottom FCs)

  /// Lookups per table per inference (1 for the production models,
  /// 4 for DLRM-RMC2).
  std::uint32_t lookups_per_table = 1;
  /// Validate's bound on lookups_per_table: placement and the serving paths
  /// hold tables x lookups accesses per query. The zoo's heaviest pooling
  /// is 80.
  static constexpr std::uint32_t kMaxLookupsPerTable = 1024;

  /// "Assigned on-chip storage" expressed as a table-count budget for
  /// placement rule 4 (see PlacementOptions::max_onchip_tables).
  std::uint32_t max_onchip_tables = 0;

  std::uint64_t seed = 1;

  std::uint32_t FeatureLength() const;  ///< sum of table dims
  Bytes TotalEmbeddingBytes() const { return TotalStorage(tables); }
  Status Validate() const;
};

/// The smaller Alibaba production model: 47 tables, 352-dim concatenated
/// feature, hidden layers (1024, 512, 256), ~1.3 GB of embeddings, 8
/// tables cached on-chip (Table 1 / Table 3).
RecModelSpec SmallProductionModel();

/// The larger production model: 98 tables, 876-dim feature, same hidden
/// layers, ~15.1 GB of embeddings, 16 tables cached on-chip.
RecModelSpec LargeProductionModel();

/// Facebook's DLRM-RMC2 benchmark class (paper 5.4.2): `num_tables` in
/// [8, 12], every table looked up 4 times, vector length `vec_len` in
/// [4, 64], each table within one HBM bank (256 MB).
RecModelSpec DlrmRmc2Model(std::uint32_t num_tables, std::uint32_t vec_len);

/// Pooled, embedding-heavy workload for the CPU wall-clock speedup gate
/// (bench_kernels / bench_wallclock): 8 tables x 80 lookups x dim 64
/// (RecNMP/DLRM pooling regime, where the gather dominates end-to-end
/// time) with RMC-size hidden layers (512, 256, 128). Rows per table are
/// a power of two (2^16) so, after physical capping at that size, gather
/// index wrapping is a mask rather than a divide.
RecModelSpec PooledCpuGateModel();

/// Random table sets for property tests and ablations: `count` tables with
/// log-uniform row counts in [min_rows, max_rows] and dims drawn from
/// {4, 8, 16, 32, 64}.
std::vector<TableSpec> RandomTables(Rng& rng, std::uint32_t count,
                                    std::uint64_t min_rows = 100,
                                    std::uint64_t max_rows = 10'000'000);

/// Seed-derivation scheme shared by every engine so the CPU baseline and
/// the accelerator simulation materialize byte-identical tables / weights.
std::uint64_t TableContentSeed(const RecModelSpec& model, std::uint32_t table_id);
std::uint64_t MlpWeightSeed(const RecModelSpec& model);

}  // namespace microrec
