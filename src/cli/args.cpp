#include "cli/args.hpp"

#include <cmath>

namespace microrec::cli {

StatusOr<ArgList> ArgList::Parse(const std::vector<std::string>& tokens,
                                 const std::set<std::string>& flag_keys) {
  ArgList args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      if (name.empty()) {
        return Status::InvalidArgument("bare '--' is not a valid option");
      }
      if (flag_keys.count(name)) {
        args.flags_.insert(name);
      } else {
        if (i + 1 >= tokens.size()) {
          return Status::InvalidArgument("option --" + name +
                                         " expects a value");
        }
        args.options_[name] = tokens[++i];
      }
    } else {
      args.positional_.push_back(token);
    }
  }
  return args;
}

bool ArgList::HasFlag(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> ArgList::GetOption(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

StatusOr<std::uint64_t> ArgList::GetUint(const std::string& name,
                                         std::uint64_t default_value) const {
  const auto value = GetOption(name);
  if (!value.has_value()) return default_value;
  try {
    // stoull accepts a leading '-' and wraps it around; digits only.
    if (value->empty() ||
        value->find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(*value);
    }
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(*value, &pos);
    if (pos != value->size()) throw std::invalid_argument(*value);
    return static_cast<std::uint64_t>(v);
  } catch (...) {
    return Status::InvalidArgument("option --" + name +
                                   " expects an integer, got '" + *value + "'");
  }
}

StatusOr<double> ArgList::GetDouble(const std::string& name,
                                    double default_value) const {
  const auto value = GetOption(name);
  if (!value.has_value()) return default_value;
  return ParseDouble(name, *value);
}

StatusOr<double> ParseDouble(const std::string& name,
                             const std::string& text) {
  try {
    // stod also accepts "nan" and "inf", which no option means.
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(v)) {
      throw std::invalid_argument(text);
    }
    return v;
  } catch (...) {
    return Status::InvalidArgument("option --" + name +
                                   " expects a number, got '" + text + "'");
  }
}

Status ArgList::CheckAllowed(const std::set<std::string>& allowed) const {
  for (const auto& [name, value] : options_) {
    (void)value;
    if (!allowed.count(name)) {
      return Status::InvalidArgument("unknown option --" + name);
    }
  }
  for (const auto& name : flags_) {
    if (!allowed.count(name)) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::Ok();
}

}  // namespace microrec::cli
