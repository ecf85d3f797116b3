// The benchmark workloads. Each fills a Record: untraced measurements
// always; in trace mode a second, traced measurement plus the spans and
// counts of its per-layer replica; and the output checks.
#pragma once

#include <cstdint>
#include <string>

#include "record.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-ups per measurement; setup_s is their median.
inline constexpr std::size_t kMinEpisodes = 3;

/// ccdctl design preset=full: core::run_pipeline on the amazon2015 trace.
void run_design_full(const Options& options, Record& record);
/// Non-durable ccdd ingest sessions fed observed rounds.
void run_ingest_stream(const Options& options, Record& record);

/// Per-layer replica of a durable simulation session, recorded into a
/// traced run: spans, checkpoint sizes and a bitwise check.
void trace_simulation_session(std::uint64_t seed, Record& record);

}  // namespace perfbench
