#include "workload/model_zoo.hpp"

#include <cmath>
#include <limits>
#include <string>

namespace microrec {

namespace {

/// Appends `count` tables with rows varied deterministically around
/// [min_rows, max_rows] (log-spaced with jitter) and the given dim.
void AppendStratum(std::vector<TableSpec>& tables, Rng& rng,
                   const std::string& prefix, std::uint32_t count,
                   std::uint64_t min_rows, std::uint64_t max_rows,
                   std::uint32_t dim) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const double t =
        count == 1 ? 0.5 : static_cast<double>(i) / static_cast<double>(count - 1);
    const double log_rows = std::log(static_cast<double>(min_rows)) +
                            t * (std::log(static_cast<double>(max_rows)) -
                                 std::log(static_cast<double>(min_rows)));
    // +-10% deterministic jitter so sizes are distinct but reproducible.
    const double jitter = 0.9 + 0.2 * rng.NextDouble();
    auto rows = static_cast<std::uint64_t>(std::exp(log_rows) * jitter);
    rows = std::max<std::uint64_t>(rows, 1);
    TableSpec spec;
    spec.id = static_cast<std::uint32_t>(tables.size());
    spec.name = prefix + "_" + std::to_string(i);
    spec.rows = rows;
    spec.dim = dim;
    tables.push_back(std::move(spec));
  }
}

}  // namespace

std::uint32_t RecModelSpec::FeatureLength() const {
  std::uint32_t len = 0;
  for (const auto& t : tables) len += t.dim;
  return len;
}

Status RecModelSpec::Validate() const {
  if (tables.empty()) return Status::InvalidArgument(name + ": no tables");
  Bytes total_bytes = 0;
  std::uint64_t feature_length = 0;  // FeatureLength() without the wrap
  for (std::size_t i = 0; i < tables.size(); ++i) {
    MICROREC_RETURN_IF_ERROR(tables[i].Validate());
    feature_length += tables[i].dim;
    const Bytes table_bytes = tables[i].TotalBytes();
    if (table_bytes > std::numeric_limits<Bytes>::max() - total_bytes) {
      return Status::InvalidArgument(
          name + ": embedding bytes overflow 64 bits at table " +
          std::to_string(tables[i].id));
    }
    total_bytes += table_bytes;
    // A pairwise scan allocates nothing on the engine-build path; models
    // hold at most a few hundred tables.
    for (std::size_t j = 0; j < i; ++j) {
      if (tables[j].id == tables[i].id) {
        return Status::InvalidArgument(name + ": duplicate table id " +
                                       std::to_string(tables[i].id));
      }
    }
  }
  if (feature_length > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(name + ": feature length " +
                                   std::to_string(feature_length) +
                                   " (sum of table dims) overflows 32 bits");
  }
  MICROREC_RETURN_IF_ERROR(mlp.Validate());
  if (mlp.input_dim != FeatureLength()) {
    return Status::FailedPrecondition(
        name + ": MLP input dim " + std::to_string(mlp.input_dim) +
        " != concatenated feature length " + std::to_string(FeatureLength()));
  }
  if (lookups_per_table == 0 || lookups_per_table > kMaxLookupsPerTable) {
    return Status::InvalidArgument(name + ": lookups_per_table must be in [1, " +
                                   std::to_string(kMaxLookupsPerTable) + "]");
  }
  return Status::Ok();
}

RecModelSpec SmallProductionModel() {
  RecModelSpec model;
  model.name = "alibaba-small";
  model.seed = 0x5a11;
  model.max_onchip_tables = 8;
  Rng rng(42);

  // 47 tables, 352-dim concatenated feature (Table 1). Strata follow the
  // paper's qualitative description: many tiny "categorical" tables
  // (candidates for Cartesian products and on-chip caching), mid-size
  // tables, and a few large ID tables dominating the 1.3 GB footprint.
  auto& tables = model.tables;
  // 18 tiny tables (200-3000 rows, dim 4): 10 become Cartesian candidates,
  // 8 are cached on-chip.
  AppendStratum(tables, rng, "tiny", 18, 200, 3000, 4);
  // 21 medium tables (50K-400K rows, dim 8): ~200 MB combined.
  AppendStratum(tables, rng, "med", 21, 50'000, 400'000, 8);
  // 6 large tables (~1.8M rows, dim 16): ~0.65 GB.
  AppendStratum(tables, rng, "large", 6, 1'600'000, 2'000'000, 16);
  // 2 very large ID tables (~7.5M rows, dim 8): ~0.45 GB.
  AppendStratum(tables, rng, "xlarge", 2, 7'000'000, 8'000'000, 8);
  MICROREC_CHECK(tables.size() == 47);

  model.mlp.input_dim = model.FeatureLength();
  model.mlp.hidden = {1024, 512, 256};
  MICROREC_CHECK(model.mlp.input_dim == 352);
  return model;
}

RecModelSpec LargeProductionModel() {
  RecModelSpec model;
  model.name = "alibaba-large";
  model.seed = 0x1a46e;
  model.max_onchip_tables = 16;
  Rng rng(4242);

  // 98 tables, 876-dim feature, ~15.1 GB (Table 1).
  auto& tables = model.tables;
  // 44 tiny tables (dim 4): 28 merge into 14 products, 16 cached on-chip.
  AppendStratum(tables, rng, "tiny", 44, 300, 5000, 4);
  // 13 small-medium tables (dim 4, ~100K-1M rows): too big to cache or
  // merge, small enough to share HBM banks.
  AppendStratum(tables, rng, "smed", 13, 100'000, 1'000'000, 4);
  // 25 medium tables (dim 8, ~1.6M rows): ~50 MB each.
  AppendStratum(tables, rng, "med", 25, 1'500'000, 1'700'000, 8);
  // 12 xlarge tables (dim 32, ~1.8M rows): ~235 MB each, one per HBM bank.
  AppendStratum(tables, rng, "xl", 12, 1'780'000, 1'880'000, 32);
  // 4 giant ID tables (dim 16, ~44M rows): ~2.8 GB each, DDR-resident.
  AppendStratum(tables, rng, "giant", 4, 43'000'000, 45'000'000, 16);
  MICROREC_CHECK(tables.size() == 98);

  model.mlp.input_dim = model.FeatureLength();
  model.mlp.hidden = {1024, 512, 256};
  MICROREC_CHECK(model.mlp.input_dim == 876);
  return model;
}

RecModelSpec DlrmRmc2Model(std::uint32_t num_tables, std::uint32_t vec_len) {
  MICROREC_CHECK(num_tables >= 1);
  MICROREC_CHECK(vec_len >= 1);
  RecModelSpec model;
  model.name = "dlrm-rmc2-" + std::to_string(num_tables) + "t-" +
               std::to_string(vec_len) + "d";
  model.seed = HashSeed(0xd1c, num_tables * 100 + vec_len);
  model.lookups_per_table = 4;  // paper 5.4.2
  model.max_onchip_tables = 0;  // no on-chip caching assumed
  // "Small tables ... within the capacity of an HBM bank (256MB)"; 1M rows
  // keeps every configuration under 256 MB for vec_len <= 64.
  for (std::uint32_t i = 0; i < num_tables; ++i) {
    TableSpec spec;
    spec.id = i;
    spec.name = "rmc2_" + std::to_string(i);
    spec.rows = 1'000'000;
    spec.dim = vec_len;
    model.tables.push_back(std::move(spec));
  }
  model.mlp.input_dim = model.FeatureLength();
  model.mlp.hidden = {512, 256, 128};  // representative RMC sizes
  return model;
}

RecModelSpec PooledCpuGateModel() {
  RecModelSpec model;
  model.name = "pooled-cpu-gate";
  model.seed = 0xca7e;
  model.lookups_per_table = 80;  // heavy pooling: gather-dominated
  model.max_onchip_tables = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    TableSpec spec;
    spec.id = i;
    spec.name = "pooled_" + std::to_string(i);
    spec.rows = 1ull << 16;  // power of two: wrap is a mask
    spec.dim = 64;
    model.tables.push_back(std::move(spec));
  }
  model.mlp.input_dim = model.FeatureLength();  // 512
  model.mlp.hidden = {512, 256, 128};
  return model;
}

std::vector<TableSpec> RandomTables(Rng& rng, std::uint32_t count,
                                    std::uint64_t min_rows,
                                    std::uint64_t max_rows) {
  MICROREC_CHECK(min_rows >= 1 && min_rows <= max_rows);
  static constexpr std::uint32_t kDims[] = {4, 8, 16, 32, 64};
  std::vector<TableSpec> tables;
  tables.reserve(count);
  const double lo = std::log(static_cast<double>(min_rows));
  const double hi = std::log(static_cast<double>(max_rows));
  for (std::uint32_t i = 0; i < count; ++i) {
    TableSpec spec;
    spec.id = i;
    spec.name = "rand_" + std::to_string(i);
    spec.rows = static_cast<std::uint64_t>(
        std::exp(lo + rng.NextDouble() * (hi - lo)));
    spec.rows = std::max<std::uint64_t>(spec.rows, 1);
    spec.dim = kDims[rng.NextBounded(5)];
    tables.push_back(std::move(spec));
  }
  return tables;
}

std::uint64_t TableContentSeed(const RecModelSpec& model,
                               std::uint32_t table_id) {
  return HashSeed(model.seed, table_id);
}

std::uint64_t MlpWeightSeed(const RecModelSpec& model) {
  return HashSeed(model.seed, 0x717);
}

}  // namespace microrec
