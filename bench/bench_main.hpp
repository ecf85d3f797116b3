// The error exit of the bench mains. A ccd::Error that escapes a bench's
// body ends the process as it ends ccdctl: the message on stderr and the
// error's stable exit code (ccd::exit_code), not std::terminate and
// SIGABRT. So an unknown parameter (ConfigError) exits 2 and a failed
// CCD_CHECK, e.g. `bench_fig6_bounds mu=0`, exits 1. Exit codes a body
// returns itself, such as release_gate.hpp's kNonReleaseExit, pass through.
#pragma once

#include <cstdio>

#include "util/error.hpp"

namespace ccd::bench {

/// Returns body(argc, argv); if it throws a ccd::Error, prints
/// "<bench>: <message>" on stderr and returns ccd::exit_code(e.code()).
inline int run_main(const char* bench, int (*body)(int, char**), int argc,
                    char** argv) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", bench, e.what());
    return exit_code(e.code());
  }
}

}  // namespace ccd::bench
