// Small string helpers used across ccd (trimming, parsing, formatting).
#pragma once

#include <string>
#include <string_view>

namespace ccd::util {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

/// Parse helpers: throw ccd::ConfigError with context on failure.
double parse_double(std::string_view s);
long long parse_int(std::string_view s);
bool parse_bool(std::string_view s);

/// printf-style double formatting with fixed precision.
std::string format_double(double v, int precision = 4);

}  // namespace ccd::util
