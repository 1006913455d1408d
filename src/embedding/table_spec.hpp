// Logical description of an embedding table and of Cartesian-combined
// tables (paper section 3.3).
//
// Specs carry *virtual* sizes -- production tables reach hundreds of
// millions of rows / tens of GB -- and drive the placement algorithm and all
// storage accounting. Materialization (embedding_table.hpp) may cap the
// physical row count for host-memory reasons without affecting any of the
// size math here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace microrec {

/// One embedding table as the model defines it.
struct TableSpec {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t rows = 0;       ///< vocabulary size (virtual)
  std::uint32_t dim = 0;        ///< embedding vector length (elements)
  std::uint32_t element_bytes = 4;  ///< fp32 storage, as in the paper

  /// Bytes of one embedding vector.
  Bytes VectorBytes() const {
    return static_cast<Bytes>(dim) * element_bytes;
  }
  /// Total (virtual) storage of the table.
  Bytes TotalBytes() const { return rows * VectorBytes(); }

  /// OK iff rows >= 1, dim >= 1, element_bytes in {2, 4} and TotalBytes()
  /// fits in 64 bits.
  Status Validate() const;
};

/// A group of one or more tables merged by Cartesian product. Each entry of
/// the product concatenates one entry from every member (figure 5), so:
///   rows = prod(member rows), dim = sum(member dims),
/// and a single memory access retrieves all member vectors at once.
class CombinedTable {
 public:
  CombinedTable() = default;
  explicit CombinedTable(TableSpec single) { members_.push_back(std::move(single)); }
  explicit CombinedTable(std::vector<TableSpec> members);

  const std::vector<TableSpec>& members() const { return members_; }
  std::size_t member_count() const { return members_.size(); }
  bool is_product() const { return members_.size() > 1; }

  /// Product of member row counts (saturates at uint64 max; callers treat
  /// overflow as "infeasible" via TotalBytes()).
  std::uint64_t rows() const;
  /// Sum of member dims.
  std::uint32_t dim() const;
  std::uint32_t element_bytes() const;

  Bytes VectorBytes() const {
    return static_cast<Bytes>(dim()) * element_bytes();
  }
  Bytes TotalBytes() const;

  /// Storage overhead of the product relative to storing members
  /// separately: TotalBytes() - sum(member TotalBytes()).
  Bytes StorageOverheadBytes() const;

  /// Flattened row index of the product entry holding member rows
  /// (row-major over members: first member varies slowest).
  std::uint64_t CombinedRowIndex(
      const std::vector<std::uint64_t>& member_rows) const;

  /// Inverse of CombinedRowIndex.
  std::vector<std::uint64_t> DecomposeRowIndex(std::uint64_t combined) const;

  /// Human-readable id such as "t3" or "t3xT7".
  std::string DebugName() const;

 private:
  std::vector<TableSpec> members_;
};

/// Sum of virtual storage across a whole model's tables.
Bytes TotalStorage(const std::vector<TableSpec>& tables);
Bytes TotalStorage(const std::vector<CombinedTable>& tables);

}  // namespace microrec
