// ingest_stream: one client drives a real ccdd child process over its Unix
// socket, closed loop: a requester waits for round t's contracts before it
// sends round t+1 (Eq. 1), so one request is in flight and the daemon runs
// one executor. With one session, no round queues behind another
// session's refit for an executor or for the cores of the shared design
// pool: with four clients and four executors on four cores the light
// rounds did, and their median spread 9.8% over five seeds.
//
// Every episode spawns a fresh daemon, opens one non-durable ingest session
// and streams the first 256 rounds into it (the set-up), then times the
// next 256 rounds. A fresh daemon per episode keeps the engine-shared
// design cache, which never evicts and grows with every refit, at the same
// size in every episode.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "contract/design_cache.hpp"
#include "core/checkpoint.hpp"
#include "effort/fitting.hpp"
#include "serve/client.hpp"
#include "serve/session.hpp"
#include "util/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ccd;

constexpr const char* kSocket = "ccdd.sock";

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The session's seed and its stream's, both derived from --seed.
std::uint64_t session_seed(std::uint64_t seed) {
  return mix(seed) % 1'000'000'007ULL;
}

/// A ccdd child process. One that was not shut down and reaped is killed
/// and reaped on destruction, and the kernel kills it if the benchmark
/// dies first, so no run leaves a daemon behind.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& args) {
    std::vector<std::string> all = {PERFBENCH_CCDD};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error(std::string("cannot fork ccdd: ") +
                               std::strerror(errno));
    }
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int log = ::open("ccdd.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Dial the daemon once its socket accepts connections.
  serve::Client connect() {
    serve::ClientOptions options;
    options.io_timeout_ms = 120'000;
    options.max_reconnects = 0;
    for (int attempt = 0;; ++attempt) {
      try {
        return serve::Client::connect_unix(kSocket, options);
      } catch (const ccd::Error&) {
        if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
          pid_ = -1;  // exited and reaped: nothing left to kill
          throw std::runtime_error("ccdd exited before accepting a connection");
        }
        if (attempt > 15'000) {
          throw std::runtime_error("ccdd never accepted a connection");
        }
        ::usleep(2'000);
      }
    }
  }

  /// CPU time the daemon has used since it was spawned, in ns.
  std::int64_t cpu_ns() const { return perfbench::cpu_ns(pid_); }

  /// Reap the daemon after a shutdown request; returns its peak resident
  /// set (VmHWM) in KiB.
  std::uint64_t wait() {
    int status = 0;
    rusage usage{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (::wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("ccdd did not exit cleanly");
    }
    return static_cast<std::uint64_t>(usage.ru_maxrss);
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection with its own request ids and ledger.
struct Connection {
  explicit Connection(serve::Client c) : client(std::move(c)) {}

  serve::Client client;
  Ledger ledger;
  std::uint64_t next_id = 1;

  serve::Response send(serve::Request request, bool is_round) {
    request.request_id = next_id++;
    ++ledger.sent;
    serve::Response response = client.call(request);
    ledger.count(response, is_round);
    return response;
  }

  /// send() for set-up and check requests, which must succeed.
  serve::Response must(serve::Request request, bool is_round = false) {
    const serve::Op op = request.op;
    serve::Response response = send(std::move(request), is_round);
    if (serve::is_error(response.status)) {
      throw std::runtime_error(std::string(serve::to_string(op)) +
                               " failed: " + response.message);
    }
    return response;
  }
};

serve::Request request(serve::Op op, std::string session = {}) {
  serve::Request r;
  r.op = op;
  r.session = std::move(session);
  return r;
}

constexpr const char* kSession = "bench";

std::string contract_bytes(const std::vector<contract::Contract>& contracts) {
  util::wire::Writer w;
  for (const contract::Contract& c : contracts) core::encode_contract(w, c);
  return w.take();
}

/// A session's final state as the output checks compare it.
struct SessionState {
  double utility = 0.0;
  std::string contracts;

  bool operator==(const SessionState& o) const {
    return std::memcmp(&utility, &o.utility, sizeof utility) == 0 &&
           contracts == o.contracts;
  }
};

// 200 workers x (effort, feedback, accuracy sample) = 4.8 KB per frame.
// The warm-up fills each worker's sample window (serve::Session keeps the
// last 256 samples); every fourth round re-fits 200 effort curves and
// re-designs 200 contracts, so a timed phase holds 64 refits.
constexpr std::size_t kIngestWorkers = 200;
constexpr std::size_t kSampleWindow = 256;
constexpr std::size_t kIngestWarmup = kSampleWindow;
constexpr std::size_t kIngestTimed = 256;
constexpr std::uint64_t kRefitEvery = 4;

using Stream = std::vector<std::vector<serve::IngestObservation>>;

/// The session's observed rounds. Each worker has a fixed concave feedback
/// law and accuracy; effort, feedback noise and accuracy samples are drawn
/// per round, so every refit sees a new window and a new fit.
Stream make_stream(std::uint64_t seed, std::size_t rounds) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<double> a2(kIngestWorkers), a1(kIngestWorkers),
      a0(kIngestWorkers), accuracy(kIngestWorkers);
  for (std::size_t i = 0; i < kIngestWorkers; ++i) {
    a2[i] = -0.6 - unit(rng);
    a1[i] = 5.0 + 4.0 * unit(rng);
    a0[i] = 0.5 + 2.5 * unit(rng);
    accuracy[i] = i % 10 == 0 ? 1.7 : 0.3;
  }
  Stream stream(rounds, std::vector<serve::IngestObservation>(kIngestWorkers));
  for (std::vector<serve::IngestObservation>& round : stream) {
    for (std::size_t i = 0; i < kIngestWorkers; ++i) {
      const double y = 0.3 + 3.2 * unit(rng);
      round[i].effort = y;
      round[i].feedback =
          std::max(0.0, a2[i] * y * y + a1[i] * y + a0[i] + 0.8 * normal(rng));
      round[i].accuracy_sample =
          std::abs(accuracy[i] + 0.15 * normal(rng));
    }
  }
  return stream;
}

serve::OpenParams ingest_open(std::uint64_t seed) {
  serve::OpenParams p;
  p.mode = serve::SessionMode::kIngest;
  p.rounds = 0;
  p.workers = kIngestWorkers;
  p.refit_every = kRefitEvery;
  p.seed = session_seed(seed);
  return p;
}

serve::Request ingest_round(const std::vector<serve::IngestObservation>& obs) {
  serve::Request r = request(serve::Op::kIngest, kSession);
  r.observations = obs;
  return r;
}

Episode run_episode(const serve::OpenParams& params, const Stream& stream,
                    bool traced, SessionState& final_state) {
  Episode episode;
  const std::int64_t cpu0 = cpu_ns();
  const std::int64_t t0 = now_ns();
  Daemon daemon({"threads=1", std::string("socket=") + kSocket});
  Connection client(daemon.connect());
  serve::Request open = request(serve::Op::kOpen, kSession);
  open.open = params;
  client.must(std::move(open));
  for (std::size_t t = 0; t < kIngestWarmup; ++t) {
    client.must(ingest_round(stream[t]), true);
  }
  episode.setup_s = seconds_between(t0, now_ns());
  // The daemon's clock started at the spawn.
  episode.setup_cpu_s = seconds_between(cpu0, cpu_ns() + daemon.cpu_ns());

  if (traced) {
    episode.metrics_before = client.must(request(serve::Op::kMetrics)).text;
  }
  double utility = 0.0;
  const std::int64_t start = now_ns();
  const std::int64_t start_cpu = daemon.cpu_ns() + cpu_ns();
  for (std::size_t t = kIngestWarmup; t < stream.size(); ++t) {
    // A round's CPU time is the client's and the daemon's: with one
    // request in flight, all the daemon does meanwhile is this round.
    // Each clock is read where reading the other one falls outside it.
    serve::Request round = ingest_round(stream[t]);
    const std::int64_t daemon_a = daemon.cpu_ns();
    const std::int64_t self_a = cpu_ns();
    const std::int64_t a = now_ns();
    const serve::Response r = client.send(std::move(round), true);
    const std::int64_t b = now_ns();
    const std::int64_t self_b = cpu_ns();
    const std::int64_t daemon_b = daemon.cpu_ns();
    ++episode.timed_attempted;
    if (serve::is_error(r.status)) {
      ++episode.timed_failed;
    } else {
      episode.latencies_us.push_back(static_cast<double>(b - a) * 1e-3);
      episode.cpu_us.push_back(
          static_cast<double>(self_b - self_a + daemon_b - daemon_a) * 1e-3);
      utility = r.session.cumulative_requester_utility;
    }
  }
  episode.timed_s = seconds_between(start, now_ns());
  episode.timed_cpu_s =
      seconds_between(start_cpu, cpu_ns() + daemon.cpu_ns());
  if (traced) {
    episode.metrics_after = client.must(request(serve::Op::kMetrics)).text;
  }

  const serve::Response contracts =
      client.must(request(serve::Op::kContracts, kSession));
  final_state = SessionState{utility, contract_bytes(contracts.contracts)};
  // The dump is the last request the daemon handles, so its counters
  // cover every request in the ledger (the dump's own response excepted).
  episode.metrics_final = client.must(request(serve::Op::kMetrics)).text;
  episode.ledger = client.ledger;

  client.must(request(serve::Op::kShutdown));
  episode.peak_rss_kb = daemon.wait();
  return episode;
}

/// Episodes until the measurement has run `seconds`; finals[e] is the
/// session's state at the end of episode e.
Measurement measure(const serve::OpenParams& params, const Stream& stream,
                    double seconds, bool traced,
                    std::vector<SessionState>& finals) {
  Measurement m;
  const std::int64_t begin = now_ns();
  while (m.episodes.size() < kMinEpisodes ||
         seconds_between(begin, now_ns()) < seconds) {
    finals.emplace_back();
    m.episodes.push_back(run_episode(params, stream, traced, finals.back()));
  }
  return m;
}

/// A bare in-process session fed `stream`. With tracing on, the timed
/// rounds are traced (frame encode, decode, session ingest split into
/// refit and other rounds), and each refit's effort fits and contract
/// batch are replayed on the same 256-round windows, with one persistent
/// design cache. The replayed specs carry the fitted curves and default
/// incentives; the session's own weights stay private to it.
SessionState feed_bare_session(const serve::OpenParams& params,
                               const Stream& stream, Record* record) {
  serve::Session session("bare", params, serve::Session::Env{});
  contract::DesignCache cache;
  contract::DesignCacheStats stats;
  std::size_t frame_bytes = 0;
  for (std::size_t t = 0; t < stream.size(); ++t) {
    if (record == nullptr || t < kIngestWarmup) {
      session.ingest(stream[t], nullptr);
      continue;
    }
    Tracer& tracer = record->tracer;
    serve::Request req = request(serve::Op::kIngest, "bare");
    req.observations = stream[t];
    const std::int64_t a = now_ns();
    const std::string frame = serve::encode_request(req);
    const std::int64_t b = now_ns();
    const serve::Request decoded = serve::decode_request(frame);
    const std::int64_t c = now_ns();
    const bool refit = session.ingest(decoded.observations, nullptr);
    const std::int64_t d = now_ns();
    frame_bytes = frame.size();
    const int round = tracer.add("serve.round", -1, a, d);
    tracer.add("serve.protocol.encode", round, a, b);
    tracer.add("serve.protocol.decode", round, b, c);
    tracer.add(refit ? "serve.session.refit" : "serve.session.ingest", round,
               c, d);
    if (!refit) continue;

    std::vector<contract::SubproblemSpec> specs(kIngestWorkers);
    const std::int64_t e = now_ns();
    for (std::size_t i = 0; i < kIngestWorkers; ++i) {
      std::vector<data::EffortSample> window;
      for (std::size_t s = t + 1 - kSampleWindow; s <= t; ++s) {
        window.push_back(data::EffortSample{static_cast<data::WorkerId>(i),
                                            static_cast<data::ReviewId>(s),
                                            stream[s][i].effort,
                                            stream[s][i].feedback});
      }
      try {
        specs[i].psi = effort::fit_effort_function(window).model;
      } catch (const ccd::Error&) {
        // A degenerate window keeps the default curve, as the session does.
      }
    }
    const std::int64_t f = now_ns();
    contract::BatchOptions options;
    options.cache = &cache;
    contract::DesignCacheStats call;
    contract::design_contracts_batch(specs, options, &call);
    const std::int64_t g = now_ns();
    stats += call;
    tracer.add("effort.fit", -1, e, f);
    tracer.add("contract.batch", -1, f, g);
  }
  if (record != nullptr) {
    record->count("replayed_rounds",
                  static_cast<double>(stream.size() - kIngestWarmup));
    record->count("serve.protocol.request_bytes",
                  static_cast<double>(frame_bytes));
    record->count("contract.ksweeps", static_cast<double>(stats.misses));
    record->count("contract.cache_hits", static_cast<double>(stats.hits));
    record->count("contract.cache_lookups", static_cast<double>(stats.lookups));
  }
  return SessionState{session.status().cumulative_requester_utility,
                      contract_bytes(session.contracts())};
}

}  // namespace

void run_ingest_stream(const Options& options, Record& record) {
  const serve::OpenParams params = ingest_open(options.seed);
  const Stream stream =
      make_stream(params.seed, kIngestWarmup + kIngestTimed);
  record.workers_per_op = static_cast<double>(kIngestWorkers);

  std::vector<SessionState> finals;
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  record.measure = measure(params, stream, seconds, false, finals);
  if (options.trace) {
    record.traced = measure(params, stream, seconds, true, finals);
  }

  const SessionState reference =
      feed_bare_session(params, stream, options.trace ? &record : nullptr);
  std::size_t mismatches = 0;
  for (const SessionState& final_state : finals) {
    if (!(final_state == reference)) ++mismatches;
  }
  record.check("ingest_stream.session_matches_bare_session", mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(finals.size()) +
                   " episodes' session differs from a bare serve::Session");
  if (options.trace) trace_simulation_session(options.seed, record);
}

}  // namespace perfbench
