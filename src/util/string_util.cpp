#include "util/string_util.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/error.hpp"

namespace ccd::util {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

double parse_double(std::string_view s) {
  const std::string_view t = trim(s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw ConfigError("cannot parse '" + std::string(s) + "' as double");
  }
  return value;
}

long long parse_int(std::string_view s) {
  const std::string_view t = trim(s);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw ConfigError("cannot parse '" + std::string(s) + "' as integer");
  }
  return value;
}

bool parse_bool(std::string_view s) {
  const std::string t = to_lower(trim(s));
  if (t == "1" || t == "true" || t == "yes" || t == "on") return true;
  if (t == "0" || t == "false" || t == "no" || t == "off") return false;
  throw ConfigError("cannot parse '" + std::string(s) + "' as bool");
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace ccd::util
