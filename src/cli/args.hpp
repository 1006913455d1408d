// Minimal command-line argument helper for the microrec CLI tool:
// positional arguments plus --flag / --key value options, with typed
// accessors and unknown-flag detection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace microrec::cli {

class ArgList {
 public:
  /// Parses argv-style tokens (no program name). `flag_keys` are options
  /// that take no value; every other `--name` consumes the next token.
  static StatusOr<ArgList> Parse(const std::vector<std::string>& tokens,
                                 const std::set<std::string>& flag_keys = {});

  const std::vector<std::string>& positional() const { return positional_; }

  bool HasFlag(const std::string& name) const;
  std::optional<std::string> GetOption(const std::string& name) const;

  /// Typed option access with a default.
  StatusOr<std::uint64_t> GetUint(const std::string& name,
                                  std::uint64_t default_value) const;

  /// Like GetUint for real-valued options (see ParseDouble).
  StatusOr<double> GetDouble(const std::string& name,
                             double default_value) const;

  /// Returns an error naming any option/flag not in `allowed`.
  Status CheckAllowed(const std::set<std::string>& allowed) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  std::set<std::string> flags_;
};

/// Parses `text`, a value given to option --`name`: any finite number
/// std::stod fully consumes.
StatusOr<double> ParseDouble(const std::string& name, const std::string& text);

}  // namespace microrec::cli
