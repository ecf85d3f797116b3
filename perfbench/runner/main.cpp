// perfbench — runs one benchmark workload and writes its raw record.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//
// Run it from a scratch directory: ingest_stream puts ccdd's socket and log
// and its traced checkpoint writes in the current directory. run.py does this and turns
// the record into metrics.
//
// Exit codes: 0 every output check passed, 1 an output check failed (the
// record is still written), 2 usage or run error, 3 the library is not a
// Release build, so no numbers are produced.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload design_full|ingest_stream "
               "--seed N --seconds S --trace 0|1 --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || out.empty() || options.seconds <= 0.0) return usage();

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "release") {
    std::fprintf(stderr,
                 "perfbench: library build type is '%s', not 'release'; "
                 "refusing to report numbers\n",
                 build_type.c_str());
    return 3;
  }

  perfbench::Record record;
  record.workload = options.workload;
  record.seed = options.seed;
  record.seconds = options.seconds;
  record.trace = options.trace;
  record.tracer = perfbench::Tracer(options.trace);
  record.build_type = build_type;
  record.compiler = PERFBENCH_COMPILER;
  record.nproc = std::thread::hardware_concurrency();
  record.checkpoint_fs = perfbench::filesystem_type(".");

  try {
    if (options.workload == "design_full") {
      perfbench::run_design_full(options, record);
    } else if (options.workload == "ingest_stream") {
      perfbench::run_ingest_stream(options, record);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }

  std::ofstream file(out);
  file << record.to_json();
  if (!file.good()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 2;
  }
  for (const perfbench::Check& check : record.checks) {
    if (!check.ok) return 1;
  }
  return 0;
}
