#include "core/serialization.hpp"

#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

namespace microrec {

namespace {

Status ParseError(std::size_t line_no, const std::string& detail) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                 detail);
}

/// Splits a line into whitespace-separated fields.
std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string field;
  while (is >> field) out.push_back(field);
  return out;
}

StatusOr<std::uint64_t> ParseU64(const std::string& s, std::size_t line_no) {
  try {
    // stoull accepts a leading '-' (or '+' and whitespace) and wraps the
    // negative around; digits only.
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(s);
    }
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return static_cast<std::uint64_t>(v);
  } catch (...) {
    return ParseError(line_no, "expected integer, got '" + s + "'");
  }
}

/// ParseU64 for 32-bit fields: a value above 2^32 - 1 is an error instead
/// of wrapping to a small one.
StatusOr<std::uint32_t> ParseU32(const std::string& s, std::size_t line_no) {
  auto v = ParseU64(s, line_no);
  if (!v.ok()) return v.status();
  if (*v > std::numeric_limits<std::uint32_t>::max()) {
    return ParseError(line_no, "expected 32-bit integer, got '" + s + "'");
  }
  return static_cast<std::uint32_t>(*v);
}

}  // namespace

std::string SerializeModel(const RecModelSpec& model) {
  std::ostringstream os;
  os << "microrec-model v1\n";
  os << "name " << model.name << "\n";
  os << "seed " << model.seed << "\n";
  os << "lookups_per_table " << model.lookups_per_table << "\n";
  os << "max_onchip_tables " << model.max_onchip_tables << "\n";
  os << "mlp " << model.mlp.input_dim << " ";
  for (std::size_t i = 0; i < model.mlp.hidden.size(); ++i) {
    os << (i ? "," : "") << model.mlp.hidden[i];
  }
  os << "\n";
  for (const auto& t : model.tables) {
    os << "table " << t.id << " " << t.rows << " " << t.dim << " "
       << t.element_bytes << " " << t.name << "\n";
  }
  return os.str();
}

StatusOr<RecModelSpec> ParseModel(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  RecModelSpec model;
  bool saw_header = false;
  bool saw_mlp = false;

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto fields = Fields(line);
    if (fields.empty()) continue;

    if (!saw_header) {
      if (fields.size() != 2 || fields[0] != "microrec-model" ||
          fields[1] != "v1") {
        return ParseError(line_no, "expected 'microrec-model v1' header");
      }
      saw_header = true;
      continue;
    }

    const std::string& key = fields[0];
    if (key == "name") {
      if (fields.size() != 2) return ParseError(line_no, "name takes 1 field");
      model.name = fields[1];
    } else if (key == "seed") {
      if (fields.size() != 2) return ParseError(line_no, "seed takes 1 field");
      auto v = ParseU64(fields[1], line_no);
      if (!v.ok()) return v.status();
      model.seed = *v;
    } else if (key == "lookups_per_table") {
      if (fields.size() != 2) return ParseError(line_no, "takes 1 field");
      auto v = ParseU32(fields[1], line_no);
      if (!v.ok()) return v.status();
      model.lookups_per_table = *v;
    } else if (key == "max_onchip_tables") {
      if (fields.size() != 2) return ParseError(line_no, "takes 1 field");
      auto v = ParseU32(fields[1], line_no);
      if (!v.ok()) return v.status();
      model.max_onchip_tables = *v;
    } else if (key == "mlp") {
      if (fields.size() != 3) {
        return ParseError(line_no, "mlp takes <input_dim> <hidden,...>");
      }
      auto input = ParseU32(fields[1], line_no);
      if (!input.ok()) return input.status();
      model.mlp.input_dim = *input;
      model.mlp.hidden.clear();
      std::istringstream hs(fields[2]);
      std::string h;
      while (std::getline(hs, h, ',')) {
        auto v = ParseU32(h, line_no);
        if (!v.ok()) return v.status();
        model.mlp.hidden.push_back(*v);
      }
      saw_mlp = true;
    } else if (key == "table") {
      if (fields.size() != 6) {
        return ParseError(
            line_no, "table takes <id> <rows> <dim> <element_bytes> <name>");
      }
      TableSpec spec;
      auto id = ParseU32(fields[1], line_no);
      auto rows = ParseU64(fields[2], line_no);
      auto dim = ParseU32(fields[3], line_no);
      auto eb = ParseU32(fields[4], line_no);
      if (!id.ok()) return id.status();
      if (!rows.ok()) return rows.status();
      if (!dim.ok()) return dim.status();
      if (!eb.ok()) return eb.status();
      spec.id = *id;
      spec.rows = *rows;
      spec.dim = *dim;
      spec.element_bytes = *eb;
      spec.name = fields[5];
      MICROREC_RETURN_IF_ERROR(spec.Validate());
      model.tables.push_back(std::move(spec));
    } else {
      return ParseError(line_no, "unknown key '" + key + "'");
    }
  }

  if (!saw_header) return Status::InvalidArgument("empty input");
  if (!saw_mlp) return Status::InvalidArgument("missing mlp line");
  MICROREC_RETURN_IF_ERROR(model.Validate());
  return model;
}

std::string SerializePlan(const PlacementPlan& plan) {
  std::ostringstream os;
  os << "microrec-plan v1\n";
  for (const auto& p : plan.placements) {
    os << "place " << p.bank << " ";
    const auto& members = p.table.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      os << (i ? "x" : "") << members[i].id;
    }
    os << "\n";
  }
  return os.str();
}

StatusOr<PlacementPlan> ParsePlan(const std::string& text,
                                  const RecModelSpec& model) {
  std::map<std::uint32_t, const TableSpec*> by_id;
  for (const auto& t : model.tables) by_id[t.id] = &t;

  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  PlacementPlan plan;
  std::map<std::uint32_t, int> seen;

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto fields = Fields(line);
    if (fields.empty()) continue;
    if (!saw_header) {
      if (fields.size() != 2 || fields[0] != "microrec-plan" ||
          fields[1] != "v1") {
        return ParseError(line_no, "expected 'microrec-plan v1' header");
      }
      saw_header = true;
      continue;
    }
    if (fields[0] != "place" || fields.size() != 3) {
      return ParseError(line_no, "expected 'place <bank> <ids>'");
    }
    auto bank = ParseU32(fields[1], line_no);
    if (!bank.ok()) return bank.status();

    std::vector<TableSpec> members;
    std::istringstream ms(fields[2]);
    std::string id_str;
    while (std::getline(ms, id_str, 'x')) {
      auto id = ParseU32(id_str, line_no);
      if (!id.ok()) return id.status();
      auto it = by_id.find(*id);
      if (it == by_id.end()) {
        return ParseError(line_no, "unknown table id " + id_str);
      }
      if (++seen[it->first] > 1) {
        return ParseError(line_no, "table id " + id_str + " placed twice");
      }
      members.push_back(*it->second);
    }
    if (members.empty()) return ParseError(line_no, "empty member list");
    plan.placements.push_back(TablePlacement{
        CombinedTable(std::move(members)), *bank});
  }

  if (!saw_header) return Status::InvalidArgument("empty input");
  if (seen.size() != model.tables.size()) {
    return Status::InvalidArgument(
        "plan covers " + std::to_string(seen.size()) + " of " +
        std::to_string(model.tables.size()) + " tables");
  }
  return plan;
}

}  // namespace microrec
