// What one benchmark run observed, written out as a raw JSON record for
// run.py to turn into metrics: per-episode set-up and timed-phase times,
// per-operation latencies and CPU times, operation ledgers, the daemon's
// own metric dumps, spans recorded around library calls, and output checks.
//
// Nothing here interprets the numbers; percentiles, self times, slopes and
// ledger reconciliation live in perfbench/analysis.py, where they are
// unit-tested on fixed inputs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// CPU time used so far by every thread of process `pid` (0: this one), in
/// ns. The kernel counts only time the threads ran: on a KVM guest with
/// steal-time accounting, time the host gave the vCPU to another guest is
/// left out, which wall-clock times cannot do.
std::int64_t cpu_ns(pid_t pid = 0);

/// One timed interval around a call into the library. `parent` indexes
/// the enclosing span (-1 for a root).
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store; spans are written out with the record at the end
/// of the run. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Returns the new span's index, or -1 when disabled.
  int add(std::string name, int parent, std::int64_t start_ns,
          std::int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Requests a client sent, by outcome.
struct Ledger {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t rounds = 0;  ///< session-rounds completed (ok advance/ingest)
  std::uint64_t backpressure = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;  ///< every other non-ok status

  void count(const ccd::serve::Response& response, bool is_round);
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One set-up followed by one timed phase. Times are wall-clock; the
/// cpu_ ones are CPU time of the processes doing the program's work (the
/// runner, and ccdd when there is one).
struct Episode {
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
  double timed_s = 0.0;
  double timed_cpu_s = 0.0;
  std::uint64_t timed_attempted = 0;
  std::uint64_t timed_failed = 0;
  std::uint64_t peak_rss_kb = 0;
  /// Latency and CPU time of every successful timed operation,
  /// microseconds. Failed operations are only counted (timed_failed).
  std::vector<double> latencies_us;
  std::vector<double> cpu_us;
  /// ingest_stream: every request of the episode.
  Ledger ledger;
  /// ingest_stream: ccdd's kMetrics JSON around the timed phase (traced
  /// measurement only) and at the end of the episode, verbatim.
  std::string metrics_before;
  std::string metrics_after;
  std::string metrics_final;
};

struct Measurement {
  std::vector<Episode> episodes;
};

struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;

  std::string build_type;
  std::string compiler;
  unsigned nproc = 0;
  std::string checkpoint_fs;

  /// Workers served per timed operation (the throughputs' numerator).
  double workers_per_op = 0.0;

  Measurement measure;
  /// Trace mode: the same measurement again with tracing on.
  Measurement traced;
  Tracer tracer{false};
  /// Trace mode: named counts taken where the work happens.
  std::vector<std::pair<std::string, double>> counts;
  /// Trace mode: (round, checkpoint payload bytes) of the simulation replica.
  std::vector<std::pair<double, double>> checkpoint_bytes;

  std::vector<Check> checks;

  void check(std::string name, bool ok, std::string detail = {});
  void count(std::string name, double value) {
    counts.emplace_back(std::move(name), value);
  }
  std::string to_json() const;
};

/// Peak resident set of this process so far, in KiB.
std::uint64_t self_peak_rss_kb();

/// Filesystem type name of `path` (e.g. "ext4", "tmpfs"), or "unknown".
std::string filesystem_type(const std::string& path);

}  // namespace perfbench
