// The Release gate of the benches that publish performance numbers
// (bench_perf, bench_throughput, bench_policy_regret). Numbers from a Debug
// or RelWithDebInfo library are not comparable with Release ones and read
// like regressions, so these binaries refuse a non-Release library (exit
// kNonReleaseExit) unless the caller passes force=1. Their outputs still
// record the real build type, so a forced run can never pass for a gate.
//
// CMake stamps the library's build type in as CCD_BUILD_TYPE (lower case;
// see ccd_release_gated in bench/CMakeLists.txt).
#pragma once

#include <cstdio>
#include <string>

#ifndef CCD_BUILD_TYPE
#define CCD_BUILD_TYPE "unknown"
#endif

namespace ccd::bench {

/// Exit code of a bench that refused a non-Release library.
inline constexpr int kNonReleaseExit = 3;

/// The library's build type, e.g. "release" or "relwithdebinfo".
inline std::string library_build_type() { return CCD_BUILD_TYPE; }

/// True when `bench` may publish numbers: the library is a Release build,
/// or `force` overrides. Otherwise says why on stderr and returns false;
/// the caller then exits with kNonReleaseExit.
inline bool release_gate(const char* bench, bool force) {
  const std::string build_type = library_build_type();
  if (build_type == "release" || force) return true;
  std::fprintf(stderr,
               "%s: library_build_type is \"%s\", not \"release\"; refusing "
               "to publish numbers (rebuild with -DCMAKE_BUILD_TYPE=Release, "
               "or pass force=1 for a local, non-gating run)\n",
               bench, build_type.c_str());
  return false;
}

}  // namespace ccd::bench
