#include "embedding/table_spec.hpp"

#include <limits>
#include <sstream>
#include <string>

namespace microrec {

Status TableSpec::Validate() const {
  if (rows == 0) {
    return Status::InvalidArgument("table " + name + ": rows must be >= 1");
  }
  if (dim == 0) {
    return Status::InvalidArgument("table " + name + ": dim must be >= 1");
  }
  if (element_bytes != 2 && element_bytes != 4) {
    return Status::InvalidArgument(
        "table " + name + ": element_bytes must be 2 (fixed16) or 4 (fp32)");
  }
  if (rows > std::numeric_limits<Bytes>::max() / VectorBytes()) {
    return Status::InvalidArgument("table " + name + ": " +
                                   std::to_string(rows) +
                                   " rows overflow a 64-bit byte count");
  }
  return Status::Ok();
}

CombinedTable::CombinedTable(std::vector<TableSpec> members)
    : members_(std::move(members)) {
  MICROREC_CHECK(!members_.empty());
  for (std::size_t i = 1; i < members_.size(); ++i) {
    MICROREC_CHECK(members_[i].element_bytes == members_[0].element_bytes);
  }
}

std::uint64_t CombinedTable::rows() const {
  std::uint64_t product = 1;
  for (const auto& m : members_) {
    if (m.rows != 0 &&
        product > std::numeric_limits<std::uint64_t>::max() / m.rows) {
      return std::numeric_limits<std::uint64_t>::max();  // saturate
    }
    product *= m.rows;
  }
  return product;
}

std::uint32_t CombinedTable::dim() const {
  std::uint32_t sum = 0;
  for (const auto& m : members_) sum += m.dim;
  return sum;
}

std::uint32_t CombinedTable::element_bytes() const {
  MICROREC_CHECK(!members_.empty());
  return members_[0].element_bytes;
}

Bytes CombinedTable::TotalBytes() const {
  const std::uint64_t r = rows();
  const Bytes vb = VectorBytes();
  if (vb != 0 && r > std::numeric_limits<Bytes>::max() / vb) {
    return std::numeric_limits<Bytes>::max();  // saturate: clearly infeasible
  }
  return r * vb;
}

Bytes CombinedTable::StorageOverheadBytes() const {
  Bytes separate = 0;
  for (const auto& m : members_) separate += m.TotalBytes();
  const Bytes total = TotalBytes();
  return total >= separate ? total - separate : 0;
}

std::uint64_t CombinedTable::CombinedRowIndex(
    const std::vector<std::uint64_t>& member_rows) const {
  MICROREC_CHECK(member_rows.size() == members_.size());
  std::uint64_t index = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    MICROREC_CHECK(member_rows[i] < members_[i].rows);
    index = index * members_[i].rows + member_rows[i];
  }
  return index;
}

std::vector<std::uint64_t> CombinedTable::DecomposeRowIndex(
    std::uint64_t combined) const {
  std::vector<std::uint64_t> out(members_.size());
  for (std::size_t i = members_.size(); i-- > 0;) {
    out[i] = combined % members_[i].rows;
    combined /= members_[i].rows;
  }
  MICROREC_CHECK(combined == 0);
  return out;
}

std::string CombinedTable::DebugName() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) os << "x";
    os << "t" << members_[i].id;
  }
  return os.str();
}

Bytes TotalStorage(const std::vector<TableSpec>& tables) {
  Bytes total = 0;
  for (const auto& t : tables) total += t.TotalBytes();
  return total;
}

Bytes TotalStorage(const std::vector<CombinedTable>& tables) {
  Bytes total = 0;
  for (const auto& t : tables) total += t.TotalBytes();
  return total;
}

}  // namespace microrec
