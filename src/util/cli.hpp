// Minimal command-line argument parsing for the tools and benches.
//
// Supports `--flag`, `--flag value`, and `--flag=value`; everything else
// is positional. Unknown-flag detection is the caller's job via
// `unknown_flags` (the parser cannot know which boolean flags exist).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tracon {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);
  explicit ArgParser(const std::vector<std::string>& args);

  /// True when --name was given (with or without a value).
  bool has(const std::string& name) const;

  /// The value of --name, or `fallback` when absent. A flag given
  /// without a value yields the empty string.
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;

  double get_double(const std::string& name, double fallback) const;
  long get_int(const std::string& name, long fallback) const;
  /// The value of --name as a count, or `fallback` when absent. Throws
  /// std::invalid_argument naming the flag when the value is negative.
  std::size_t get_count(const std::string& name, std::size_t fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags present on the command line but not in `known` — for usage
  /// errors.
  std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  void parse(const std::vector<std::string>& args);

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tracon
