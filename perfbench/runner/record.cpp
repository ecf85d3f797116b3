#include "record.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

namespace perfbench {

int Tracer::add(std::string name, int parent, std::int64_t start_ns,
                std::int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void Ledger::count(const ccd::serve::Response& response, bool is_round) {
  using ccd::serve::Status;
  ++received;
  switch (response.status) {
    case Status::kOk:
      ++ok;
      if (is_round) ++rounds;
      break;
    case Status::kBackpressure:
      ++backpressure;
      break;
    case Status::kDeadline:
      ++deadline;
      break;
    default:
      ++errors;
      break;
  }
}

void Record::check(std::string name, bool ok, std::string detail) {
  if (!ok) std::fprintf(stderr, "check failed: %s %s\n", name.c_str(), detail.c_str());
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string number(std::uint64_t v) { return std::to_string(v); }

/// A daemon metrics dump is itself a JSON object; an absent one is null.
std::string embedded(const std::string& json) {
  return json.empty() ? "null" : json;
}

const char* boolean(bool v) { return v ? "true" : "false"; }

/// Appends every part to `out` (string concatenation without temporaries).
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (out.append(parts), ...);
}

void append_ledger(std::string& out, const Ledger& l) {
  append(out, "{\"sent\": ", number(l.sent), ", \"received\": ",
         number(l.received), ", \"ok\": ", number(l.ok), ", \"rounds\": ",
         number(l.rounds), ", \"backpressure\": ", number(l.backpressure),
         ", \"deadline\": ", number(l.deadline), ", \"errors\": ",
         number(l.errors), "}");
}

void append_measurement(std::string& out, const Measurement& m) {
  out += "{\"episodes\": [";
  for (std::size_t i = 0; i < m.episodes.size(); ++i) {
    const Episode& e = m.episodes[i];
    if (i > 0) out += ", ";
    append(out, "{\"setup_s\": ", number(e.setup_s),
           ", \"setup_cpu_s\": ", number(e.setup_cpu_s), ", \"timed_s\": ",
           number(e.timed_s), ", \"timed_cpu_s\": ", number(e.timed_cpu_s),
           ", \"timed_attempted\": ",
           number(e.timed_attempted), ", \"timed_failed\": ",
           number(e.timed_failed), ", \"peak_rss_kb\": ",
           number(e.peak_rss_kb), ", \"ledger\": ");
    append_ledger(out, e.ledger);
    append(out, ", \"metrics_before\": ", embedded(e.metrics_before),
           ", \"metrics_after\": ", embedded(e.metrics_after),
           ", \"metrics_final\": ", embedded(e.metrics_final),
           ", \"latencies_us\": [");
    for (std::size_t k = 0; k < e.latencies_us.size(); ++k) {
      append(out, k > 0 ? ", " : "", number(e.latencies_us[k]));
    }
    out += "], \"cpu_us\": [";
    for (std::size_t k = 0; k < e.cpu_us.size(); ++k) {
      append(out, k > 0 ? ", " : "", number(e.cpu_us[k]));
    }
    out += "]}";
  }
  out += "]}";
}

}  // namespace

std::string Record::to_json() const {
  std::string out;
  append(out, "{\"workload\": ", quoted(workload), ", \"seed\": ",
         number(seed), ", \"seconds\": ", number(seconds), ", \"trace\": ",
         boolean(trace), ", \"build_type\": ", quoted(build_type),
         ", \"compiler\": ", quoted(compiler), ", \"nproc\": ",
         number(std::uint64_t{nproc}), ", \"checkpoint_fs\": ",
         quoted(checkpoint_fs), ", \"workers_per_op\": ",
         number(workers_per_op), ",\n\"measure\": ");
  append_measurement(out, measure);
  if (trace) {
    out += ",\n\"traced\": ";
    append_measurement(out, traced);
    out += ",\n\"spans\": [";
    const std::vector<Span>& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      append(out, i > 0 ? ",\n[" : "[", quoted(s.name), ", ",
             std::to_string(s.parent), ", ", std::to_string(s.start_ns), ", ",
             std::to_string(s.end_ns), "]");
    }
    out += "],\n\"counts\": {";
    for (std::size_t i = 0; i < counts.size(); ++i) {
      append(out, i > 0 ? ", " : "", quoted(counts[i].first), ": ",
             number(counts[i].second));
    }
    out += "},\n\"checkpoint_bytes\": [";
    for (std::size_t i = 0; i < checkpoint_bytes.size(); ++i) {
      append(out, i > 0 ? ", [" : "[", number(checkpoint_bytes[i].first),
             ", ", number(checkpoint_bytes[i].second), "]");
    }
    out += "]";
  }
  out += ",\n\"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    append(out, i > 0 ? ",\n" : "", "{\"name\": ", quoted(checks[i].name),
           ", \"ok\": ", boolean(checks[i].ok), ", \"detail\": ",
           quoted(checks[i].detail), "}");
  }
  out += "]}\n";
  return out;
}

std::int64_t cpu_ns(pid_t pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != 0) {
    const int err = ::clock_getcpuclockid(pid, &clock);
    if (err != 0) {
      throw std::runtime_error("no CPU clock for pid " + std::to_string(pid) +
                               ": " + std::strerror(err));
    }
  }
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error(std::string("cannot read a CPU clock: ") +
                             std::strerror(errno));
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t self_peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace perfbench
