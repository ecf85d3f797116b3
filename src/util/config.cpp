#include "util/config.hpp"

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace ccd::util {

ParamMap ParamMap::from_args(int argc, const char* const* argv) {
  ParamMap map;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) continue;
    map.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return map;
}

void ParamMap::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool ParamMap::contains(const std::string& key) const {
  return values_.count(key) > 0;
}

double ParamMap::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  return parse_double(it->second);
}

long long ParamMap::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  return parse_int(it->second);
}

bool ParamMap::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  return parse_bool(it->second);
}

std::string ParamMap::get_string(const std::string& key,
                                 const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  return it->second;
}

void ParamMap::assert_all_consumed() const {
  for (const auto& [key, value] : values_) {
    if (consumed_.count(key) == 0) {
      throw ConfigError("unknown parameter '" + key + "=" + value + "'");
    }
  }
}

}  // namespace ccd::util
