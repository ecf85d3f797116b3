// key=value parameter maps for examples and benchmark binaries.
//
// Every runnable accepts overrides as `name=value` command-line arguments;
// ParamMap parses them and provides typed access with defaults. Unknown keys
// are tolerated until `assert_all_consumed()` — catching typos in sweeps.
#pragma once

#include <map>
#include <set>
#include <string>

namespace ccd::util {

class ParamMap {
 public:
  ParamMap() = default;

  /// Parse argv-style `key=value` tokens (skips tokens without '=').
  static ParamMap from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);
  bool contains(const std::string& key) const;

  /// Typed getters; throw ccd::ConfigError on parse failure.
  double get_double(const std::string& key, double fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;

  /// Throws ConfigError if any provided key was never read.
  void assert_all_consumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

}  // namespace ccd::util
