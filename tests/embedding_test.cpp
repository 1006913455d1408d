// Tests for table specs, materialized tables, and Cartesian products --
// including the core correctness property of the paper's data structure:
// one product-table access returns exactly the concatenation of its member
// vectors, for every index combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "embedding/cartesian.hpp"
#include "embedding/embedding_table.hpp"
#include "embedding/table_spec.hpp"

namespace microrec {
namespace {

TableSpec MakeSpec(std::uint32_t id, std::uint64_t rows, std::uint32_t dim) {
  TableSpec spec;
  spec.id = id;
  spec.name = "t" + std::to_string(id);
  spec.rows = rows;
  spec.dim = dim;
  return spec;
}

// ---------------------------------------------------------------- TableSpec

TEST(TableSpecTest, SizeMath) {
  const TableSpec spec = MakeSpec(0, 1000, 16);
  EXPECT_EQ(spec.VectorBytes(), 64u);
  EXPECT_EQ(spec.TotalBytes(), 64000u);
}

TEST(TableSpecTest, ValidationRejectsDegenerateSpecs) {
  EXPECT_FALSE(MakeSpec(0, 0, 4).Validate().ok());
  EXPECT_FALSE(MakeSpec(0, 10, 0).Validate().ok());
  TableSpec bad = MakeSpec(0, 10, 4);
  bad.element_bytes = 3;
  EXPECT_FALSE(bad.Validate().ok());
  EXPECT_TRUE(MakeSpec(0, 10, 4).Validate().ok());
}

TEST(TableSpecTest, ValidationRejectsByteCountOverflow) {
  // TotalBytes() is rows x VectorBytes(); a row count that makes it wrap
  // is rejected, the largest that does not is accepted.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(MakeSpec(0, kMax, 4).Validate().ok());
  EXPECT_TRUE(MakeSpec(0, kMax / 16, 4).Validate().ok());
  EXPECT_FALSE(MakeSpec(0, kMax / 16 + 1, 4).Validate().ok());
  TableSpec half = MakeSpec(0, kMax / 8, 4);
  half.element_bytes = 2;
  EXPECT_TRUE(half.Validate().ok());
  half.rows += 1;
  EXPECT_FALSE(half.Validate().ok());
}

TEST(TableSpecTest, HalfPrecisionElements) {
  TableSpec spec = MakeSpec(0, 100, 8);
  spec.element_bytes = 2;
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_EQ(spec.VectorBytes(), 16u);
}

// ---------------------------------------------------------------- CombinedTable

TEST(CombinedTableTest, SingleTablePassthrough) {
  const CombinedTable combined(MakeSpec(3, 100, 8));
  EXPECT_FALSE(combined.is_product());
  EXPECT_EQ(combined.rows(), 100u);
  EXPECT_EQ(combined.dim(), 8u);
  EXPECT_EQ(combined.StorageOverheadBytes(), 0u);
  EXPECT_EQ(combined.DebugName(), "t3");
}

TEST(CombinedTableTest, PairProductDimsAndRows) {
  const CombinedTable product(
      std::vector<TableSpec>{MakeSpec(0, 3, 4), MakeSpec(1, 5, 8)});
  EXPECT_TRUE(product.is_product());
  EXPECT_EQ(product.rows(), 15u);
  EXPECT_EQ(product.dim(), 12u);
  EXPECT_EQ(product.TotalBytes(), 15u * 12 * 4);
  EXPECT_EQ(product.DebugName(), "t0xt1");
}

TEST(CombinedTableTest, StorageOverheadIsProductMinusMembers) {
  // Figure 5: 2x2 -> 4 entries. Members: 2*4B*dimA + 2*4B*dimB.
  const CombinedTable product(
      std::vector<TableSpec>{MakeSpec(0, 2, 2), MakeSpec(1, 2, 2)});
  const Bytes separate = 2 * 8 + 2 * 8;
  const Bytes merged = 4 * 16;
  EXPECT_EQ(product.StorageOverheadBytes(), merged - separate);
}

TEST(CombinedTableTest, TripleProduct) {
  const CombinedTable product(std::vector<TableSpec>{
      MakeSpec(0, 2, 4), MakeSpec(1, 3, 4), MakeSpec(2, 5, 8)});
  EXPECT_EQ(product.rows(), 30u);
  EXPECT_EQ(product.dim(), 16u);
}

TEST(CombinedTableTest, RowIndexRoundTrip) {
  const CombinedTable product(std::vector<TableSpec>{
      MakeSpec(0, 4, 4), MakeSpec(1, 7, 4), MakeSpec(2, 3, 4)});
  for (std::uint64_t a = 0; a < 4; ++a) {
    for (std::uint64_t b = 0; b < 7; ++b) {
      for (std::uint64_t c = 0; c < 3; ++c) {
        const std::uint64_t combined = product.CombinedRowIndex({a, b, c});
        EXPECT_LT(combined, product.rows());
        EXPECT_EQ(product.DecomposeRowIndex(combined),
                  (std::vector<std::uint64_t>{a, b, c}));
      }
    }
  }
}

TEST(CombinedTableTest, RowIndexIsBijective) {
  const CombinedTable product(
      std::vector<TableSpec>{MakeSpec(0, 6, 4), MakeSpec(1, 9, 4)});
  std::vector<bool> seen(product.rows(), false);
  for (std::uint64_t a = 0; a < 6; ++a) {
    for (std::uint64_t b = 0; b < 9; ++b) {
      const std::uint64_t idx = product.CombinedRowIndex({a, b});
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
}

TEST(CombinedTableTest, OverflowSaturates) {
  const CombinedTable product(std::vector<TableSpec>{
      MakeSpec(0, std::uint64_t(1) << 40, 4), MakeSpec(1, std::uint64_t(1) << 40, 4)});
  EXPECT_EQ(product.rows(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(product.TotalBytes(), std::numeric_limits<Bytes>::max());
}

TEST(CombinedTableTest, TotalStorageSums) {
  std::vector<TableSpec> tables = {MakeSpec(0, 10, 4), MakeSpec(1, 20, 8)};
  EXPECT_EQ(TotalStorage(tables), 10u * 16 + 20u * 32);
}

// ---------------------------------------------------------------- EmbeddingTable

TEST(EmbeddingTableTest, MaterializeIsDeterministic) {
  const TableSpec spec = MakeSpec(0, 100, 8);
  const auto a = EmbeddingTable::Materialize(spec, 55);
  const auto b = EmbeddingTable::Materialize(spec, 55);
  for (std::uint64_t r = 0; r < 100; ++r) {
    const auto va = a.Lookup(r);
    const auto vb = b.Lookup(r);
    for (std::uint32_t c = 0; c < 8; ++c) EXPECT_EQ(va[c], vb[c]);
  }
}

TEST(EmbeddingTableTest, ContentsMatchReferenceFunction) {
  const TableSpec spec = MakeSpec(0, 50, 4);
  const auto table = EmbeddingTable::Materialize(spec, 77);
  for (std::uint64_t r = 0; r < 50; ++r) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(table.Lookup(r)[c], EmbeddingTable::ReferenceValue(77, r, c));
    }
  }
}

TEST(EmbeddingTableTest, DifferentSeedsGiveDifferentContents) {
  const TableSpec spec = MakeSpec(0, 10, 4);
  const auto a = EmbeddingTable::Materialize(spec, 1);
  const auto b = EmbeddingTable::Materialize(spec, 2);
  int same = 0;
  for (std::uint64_t r = 0; r < 10; ++r) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      same += (a.Lookup(r)[c] == b.Lookup(r)[c]);
    }
  }
  EXPECT_LT(same, 3);
}

TEST(EmbeddingTableTest, ValuesAreBoundedForFixedPointRange) {
  const TableSpec spec = MakeSpec(0, 200, 16);
  const auto table = EmbeddingTable::Materialize(spec, 9);
  for (std::uint64_t r = 0; r < 200; ++r) {
    for (float v : table.Lookup(r)) {
      EXPECT_GT(v, -0.25f);
      EXPECT_LT(v, 0.25f);
    }
  }
}

TEST(EmbeddingTableTest, PhysicalCapWrapsLookups) {
  const TableSpec spec = MakeSpec(0, 1'000'000, 4);
  const auto table = EmbeddingTable::Materialize(spec, 3, /*max_physical_rows=*/128);
  EXPECT_EQ(table.physical_rows(), 128u);
  EXPECT_FALSE(table.fully_materialized());
  EXPECT_EQ(table.MaterializedBytes(), 128u * 16);
  // Lookups beyond the cap wrap modulo physical rows.
  const auto a = table.Lookup(5);
  const auto b = table.Lookup(5 + 128);
  for (std::uint32_t c = 0; c < 4; ++c) EXPECT_EQ(a[c], b[c]);
}

TEST(EmbeddingTableTest, FullMaterializationFlag) {
  const TableSpec spec = MakeSpec(0, 64, 4);
  EXPECT_TRUE(EmbeddingTable::Materialize(spec, 1).fully_materialized());
}

TEST(EmbeddingTableTest, PackedViewAgreesWithLookup) {
  // The zero-copy packed view is what the vectorized gather reads; it must
  // expose exactly the rows Lookup() serves, with the stride padded to 8
  // floats and the padding lanes zero.
  const TableSpec spec = MakeSpec(0, 40, 13);  // dim not a multiple of 8
  const auto table = EmbeddingTable::Materialize(spec, 19);
  const PackedTableView view = table.packed_view();
  EXPECT_EQ(view.rows, table.physical_rows());
  EXPECT_EQ(view.dim, spec.dim);
  EXPECT_EQ(view.stride, PackedRowStride(spec.dim));
  for (std::uint64_t r = 0; r < view.rows; ++r) {
    const auto expected = table.Lookup(r);
    const float* row = view.row(r);
    for (std::uint32_t c = 0; c < spec.dim; ++c) {
      ASSERT_EQ(row[c], expected[c]) << "row " << r << " col " << c;
    }
    for (std::uint32_t c = spec.dim; c < view.stride; ++c) {
      ASSERT_EQ(row[c], 0.0f) << "padding lane " << c << " of row " << r;
    }
  }
}

TEST(EmbeddingTableTest, PackedViewCoversCappedTables) {
  const TableSpec spec = MakeSpec(0, 1'000'000, 8);
  const auto table =
      EmbeddingTable::Materialize(spec, 23, /*max_physical_rows=*/64);
  const PackedTableView view = table.packed_view();
  EXPECT_EQ(view.rows, 64u);
  // Virtual indices wrap identically through Lookup and the view.
  const auto wrapped = table.Lookup(64 + 5);
  for (std::uint32_t c = 0; c < spec.dim; ++c) {
    EXPECT_EQ(view.row(5)[c], wrapped[c]);
  }
}

TEST(GatherConcatTest, ConcatenatesInTableOrder) {
  std::vector<EmbeddingTable> tables;
  tables.push_back(EmbeddingTable::Materialize(MakeSpec(0, 10, 4), 1));
  tables.push_back(EmbeddingTable::Materialize(MakeSpec(1, 10, 8), 2));
  EXPECT_EQ(ConcatDim(tables), 12u);
  std::vector<float> out(12);
  std::vector<std::uint64_t> indices = {3, 7};
  GatherConcat(tables, indices, out);
  const auto v0 = tables[0].Lookup(3);
  const auto v1 = tables[1].Lookup(7);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], v0[i]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[4 + i], v1[i]);
}

// ---------------------------------------------------------------- Cartesian

TEST(CartesianTest, MaterializeRejectsEmpty) {
  auto result = CartesianProductTable::Materialize({});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CartesianTest, MaterializeRejectsCappedMembers) {
  std::vector<EmbeddingTable> members;
  members.push_back(EmbeddingTable::Materialize(MakeSpec(0, 1000, 4), 1,
                                                /*max_physical_rows=*/10));
  auto result = CartesianProductTable::Materialize(std::move(members));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CartesianTest, MaterializeRejectsOversizedProduct) {
  std::vector<EmbeddingTable> members;
  members.push_back(EmbeddingTable::Materialize(MakeSpec(0, 1000, 4), 1));
  members.push_back(EmbeddingTable::Materialize(MakeSpec(1, 1000, 4), 2));
  auto result = CartesianProductTable::Materialize(std::move(members),
                                                   /*max_bytes=*/1024);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// The core data-structure property (figure 5): every product entry is the
// concatenation of its member entries, exhaustively over all combinations.
class CartesianPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(CartesianPropertyTest, LookupEqualsConcatOfMembers) {
  const auto [rows_a, dim_a, rows_b, dim_b] = GetParam();
  std::vector<EmbeddingTable> members;
  members.push_back(EmbeddingTable::Materialize(MakeSpec(0, rows_a, dim_a), 11));
  members.push_back(EmbeddingTable::Materialize(MakeSpec(1, rows_b, dim_b), 12));
  const EmbeddingTable table_a = EmbeddingTable::Materialize(MakeSpec(0, rows_a, dim_a), 11);
  const EmbeddingTable table_b = EmbeddingTable::Materialize(MakeSpec(1, rows_b, dim_b), 12);

  auto product_or = CartesianProductTable::Materialize(std::move(members));
  ASSERT_TRUE(product_or.ok()) << product_or.status();
  const CartesianProductTable& product = product_or.value();

  EXPECT_EQ(product.rows(),
            static_cast<std::uint64_t>(rows_a) * static_cast<std::uint64_t>(rows_b));
  EXPECT_EQ(product.dim(), static_cast<std::uint32_t>(dim_a + dim_b));

  for (std::uint64_t a = 0; a < static_cast<std::uint64_t>(rows_a); ++a) {
    for (std::uint64_t b = 0; b < static_cast<std::uint64_t>(rows_b); ++b) {
      const auto merged = product.Lookup(product.RowIndexOf({a, b}));
      const auto va = table_a.Lookup(a);
      const auto vb = table_b.Lookup(b);
      for (int d = 0; d < dim_a; ++d) {
        ASSERT_EQ(merged[d], va[d]) << "a=" << a << " b=" << b << " d=" << d;
      }
      for (int d = 0; d < dim_b; ++d) {
        ASSERT_EQ(merged[dim_a + d], vb[d]) << "a=" << a << " b=" << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CartesianPropertyTest,
    ::testing::Values(std::make_tuple(2, 2, 2, 2), std::make_tuple(1, 4, 9, 8),
                      std::make_tuple(7, 4, 5, 16),
                      std::make_tuple(16, 8, 16, 4),
                      std::make_tuple(3, 64, 2, 4)));

TEST(CartesianTest, TripleProductLookup) {
  std::vector<EmbeddingTable> members;
  members.push_back(EmbeddingTable::Materialize(MakeSpec(0, 2, 4), 21));
  members.push_back(EmbeddingTable::Materialize(MakeSpec(1, 3, 4), 22));
  members.push_back(EmbeddingTable::Materialize(MakeSpec(2, 4, 8), 23));
  auto product_or = CartesianProductTable::Materialize(std::move(members));
  ASSERT_TRUE(product_or.ok());
  const auto& product = product_or.value();
  EXPECT_EQ(product.rows(), 24u);
  EXPECT_EQ(product.dim(), 16u);
  const auto merged = product.Lookup(product.RowIndexOf({1, 2, 3}));
  EXPECT_EQ(merged[0], product.members()[0].Lookup(1)[0]);
  EXPECT_EQ(merged[4], product.members()[1].Lookup(2)[0]);
  EXPECT_EQ(merged[8], product.members()[2].Lookup(3)[0]);
}

TEST(CartesianTest, MaterializedBytesMatchSpecMath) {
  std::vector<EmbeddingTable> members;
  members.push_back(EmbeddingTable::Materialize(MakeSpec(0, 5, 4), 31));
  members.push_back(EmbeddingTable::Materialize(MakeSpec(1, 6, 8), 32));
  auto product_or = CartesianProductTable::Materialize(std::move(members));
  ASSERT_TRUE(product_or.ok());
  EXPECT_EQ(product_or->MaterializedBytes(), product_or->combined().TotalBytes());
}

}  // namespace
}  // namespace microrec
