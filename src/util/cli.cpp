#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/error.hpp"

namespace tracon {

ArgParser::ArgParser(int argc, const char* const* argv) {
  TRACON_REQUIRE(argc == 0 || argv != nullptr,
                 "argv must be non-null when argc > 0");
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

// TRACON_ANALYZE_ALLOW(require-guard): validation happens in parse(),
// which rejects a bare "--"; an empty args vector is legitimate.
ArgParser::ArgParser(const std::vector<std::string>& args) { parse(args); }

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      positional_.push_back(a);
      continue;
    }
    std::string body = a.substr(2);
    TRACON_REQUIRE(!body.empty(), "bare '--' is not a flag");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      flags_[body] = args[i + 1];
      ++i;
    } else {
      flags_[body] = "";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t pos = 0;
    double v = std::stod(it->second, &pos);
    TRACON_REQUIRE(pos == it->second.size(), "trailing junk in number");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                it->second + "'");
  }
}

long ArgParser::get_int(const std::string& name, long fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t pos = 0;
    long v = std::stol(it->second, &pos);
    TRACON_REQUIRE(pos == it->second.size(), "trailing junk in integer");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

std::size_t ArgParser::get_count(const std::string& name,
                                 std::size_t fallback) const {
  if (!has(name)) return fallback;
  const long v = get_int(name, 0);
  if (v < 0)
    throw std::invalid_argument("flag --" + name +
                                " expects a count >= 0, got '" + get(name) +
                                "'");
  return static_cast<std::size_t>(v);
}

std::vector<std::string> ArgParser::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end())
      out.push_back(name);
  }
  return out;
}

}  // namespace tracon
