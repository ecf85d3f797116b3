// Serve load — closed-loop load generator for the ccd::serve subsystem.
//
// Boots an in-process Engine + Server on a Unix socket, then drives
// `sessions` concurrent campaigns, one blocking client connection per
// session, each advancing its simulation round-by-round until the round
// budget is exhausted. The admission queue is deliberately smaller than
// the client population so the overload path (explicit kBackpressure,
// client-owned retry) is exercised under real contention, not mocked.
//
// Accounting is strict: every request a client sends must come back with
// exactly one response, and the server's own ccd.serve.* counters must
// reconcile with the client-observed totals — any "dropped but
// acknowledged" request is a hard failure (non-zero exit), not a warning.
//
// Headlines goodput, rounds completed per wall-clock second
// (`goodput_rounds_per_s`). The response rate (`throughput_rps`) counts
// every response, backpressure rejects included, so under overload it
// mostly measures how fast the server says no. Also reports
// client-observed p50/p95/p99 latency via util::metrics histograms and
// writes a machine-readable summary to `out=` (default
// BENCH_serve_load.json).
//
// Usage: bench_serve_load [sessions=64] [rounds=5] [workers=4]
//                         [malicious=1] [threads=4] [queue=16]
//                         [seed=1000] [out=BENCH_serve_load.json]
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/config.hpp"
#include "util/metrics.hpp"
#include "bench_main.hpp"

namespace {

struct ClientTally {
  std::uint64_t requests = 0;   // frames sent (including rejected retries)
  std::uint64_t responses = 0;  // frames received
  std::uint64_t rounds = 0;     // simulation rounds completed
  std::uint64_t backpressure = 0;
  double final_utility = 0.0;
};

double counter_value(const char* name) {
  namespace metrics = ccd::util::metrics;
  for (const metrics::MetricSnapshot& m : metrics::registry().snapshot()) {
    if (m.name == name) return static_cast<double>(m.counter);
  }
  return 0.0;
}

int run(int argc, char** argv) {
  using namespace ccd;
  namespace metrics = util::metrics;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const std::size_t sessions =
      static_cast<std::size_t>(params.get_int("sessions", 64));
  const std::uint64_t rounds =
      static_cast<std::uint64_t>(params.get_int("rounds", 5));
  const std::uint64_t workers =
      static_cast<std::uint64_t>(params.get_int("workers", 4));
  const std::uint64_t malicious =
      static_cast<std::uint64_t>(params.get_int("malicious", 1));
  const std::size_t threads =
      static_cast<std::size_t>(params.get_int("threads", 4));
  const std::size_t queue =
      static_cast<std::size_t>(params.get_int("queue", 16));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.get_int("seed", 1000));
  const std::string out = params.get_string("out", "BENCH_serve_load.json");
  params.assert_all_consumed();

  std::printf("== Serve load: %zu concurrent sessions x %llu rounds "
              "(%zu executor threads, queue capacity %zu) ==\n\n",
              sessions, static_cast<unsigned long long>(rounds), threads,
              queue);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ccd_serve_load_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string socket_path = (dir / "ccdd.sock").string();

  serve::EngineConfig engine_config;
  engine_config.worker_threads = threads;
  engine_config.queue_capacity = queue;
  engine_config.max_sessions = sessions;
  serve::Engine engine(engine_config);
  serve::ServerConfig server_config;
  server_config.unix_socket = socket_path;
  serve::Server server(server_config, engine);

  metrics::Histogram& latency =
      metrics::registry().histogram("ccd.bench.serve.request_us");

  std::vector<ClientTally> tallies(sessions);
  std::atomic<bool> failed{false};
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::thread> drivers;
  drivers.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    drivers.emplace_back([&, s] {
      try {
        serve::Client client = serve::Client::connect_unix(socket_path);
        ClientTally& tally = tallies[s];
        const std::string id = "load-" + std::to_string(s);
        std::uint64_t request_id = 1;

        // One raw round trip, retried until the admission queue takes it.
        // Every attempt is tallied: rejected frames are still request/
        // response pairs the ledger must account for.
        const auto call_admitted =
            [&](serve::Request request) -> serve::Response {
          while (true) {
            request.request_id = request_id++;
            const auto sent = std::chrono::steady_clock::now();
            ++tally.requests;
            serve::Response response = client.call(request);
            ++tally.responses;
            latency.record(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - sent)
                               .count());
            if (response.status == serve::Status::kBackpressure) {
              // Explicit overload: nothing happened server-side. Back off
              // briefly and retry — the closed loop self-paces.
              ++tally.backpressure;
              ::usleep(200);
              continue;
            }
            if (serve::is_error(response.status)) {
              serve::throw_status(response.status, response.message);
            }
            return response;
          }
        };

        serve::Request open;
        open.op = serve::Op::kOpen;
        open.session = id;
        open.open.rounds = rounds;
        open.open.workers = workers;
        open.open.malicious = malicious;
        open.open.seed = seed + s;
        call_admitted(open);

        serve::Request advance;
        advance.op = serve::Op::kAdvance;
        advance.session = id;
        advance.advance_rounds = 1;
        serve::SessionStatus status;
        do {
          status = call_admitted(advance).session;
          ++tally.rounds;
        } while (!status.finished);
        tally.final_utility = status.cumulative_requester_utility;

        serve::Request close;
        close.op = serve::Op::kClose;
        close.session = id;
        call_admitted(close);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "session %zu failed: %s\n", s, e.what());
        failed.store(true);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  server.stop();
  engine.stop();
  std::filesystem::remove_all(dir);

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.requests += t.requests;
    total.responses += t.responses;
    total.rounds += t.rounds;
    total.backpressure += t.backpressure;
  }
  // `rounds` advances per session actually advance; retries rejected with
  // backpressure completed no round, so the round ledger must balance.
  const std::uint64_t expected_rounds = sessions * rounds;

  const metrics::HistogramSnapshot lat = latency.snapshot();
  const double goodput =
      wall_s > 0.0 ? static_cast<double>(total.rounds) / wall_s : 0.0;
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(total.responses) / wall_s : 0.0;

  std::printf("goodput              : %.1f rounds/s (rounds completed / "
              "wall s)\n",
              goodput);
  std::printf("requests sent        : %llu\n",
              static_cast<unsigned long long>(total.requests));
  std::printf("responses received   : %llu\n",
              static_cast<unsigned long long>(total.responses));
  std::printf("rounds completed     : %llu (expected %llu)\n",
              static_cast<unsigned long long>(total.rounds),
              static_cast<unsigned long long>(expected_rounds));
  std::printf("backpressure rejects : %llu\n",
              static_cast<unsigned long long>(total.backpressure));
  std::printf("wall time            : %.3f s\n", wall_s);
  std::printf("response rate        : %.1f /s (backpressure rejects "
              "included)\n",
              throughput);
  std::printf("advance latency      : p50 %.0f us, p95 %.0f us, p99 %.0f us "
              "(max %.0f us, n=%llu)\n",
              lat.p50(), lat.p95(), lat.p99(), lat.max,
              static_cast<unsigned long long>(lat.count));

  // Strict accounting. Client side: one response per request. Server side:
  // the engine's own ledger must agree with what the clients observed.
  bool ok = !failed.load();
  if (total.responses != total.requests) {
    std::fprintf(stderr,
                 "FAIL: %llu requests sent but %llu responses received\n",
                 static_cast<unsigned long long>(total.requests),
                 static_cast<unsigned long long>(total.responses));
    ok = false;
  }
  if (total.rounds != expected_rounds) {
    std::fprintf(stderr, "FAIL: completed %llu rounds, expected %llu\n",
                 static_cast<unsigned long long>(total.rounds),
                 static_cast<unsigned long long>(expected_rounds));
    ok = false;
  }
  const double submitted = counter_value("ccd.serve.submitted");
  const double answered = counter_value("ccd.serve.responses");
  if (submitted != static_cast<double>(total.requests) ||
      answered != static_cast<double>(total.requests)) {
    std::fprintf(stderr,
                 "FAIL: server ledger (submitted=%.0f responses=%.0f) does "
                 "not reconcile with client-observed %llu\n",
                 submitted, answered,
                 static_cast<unsigned long long>(total.requests));
    ok = false;
  }
  const double served_bp = counter_value("ccd.serve.backpressure");
  if (served_bp != static_cast<double>(total.backpressure)) {
    std::fprintf(stderr,
                 "FAIL: server counted %.0f backpressure rejects, clients "
                 "observed %llu\n",
                 served_bp,
                 static_cast<unsigned long long>(total.backpressure));
    ok = false;
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"serve_load\",\n"
                 "  \"sessions\": %zu,\n"
                 "  \"rounds_per_session\": %llu,\n"
                 "  \"executor_threads\": %zu,\n"
                 "  \"queue_capacity\": %zu,\n"
                 "  \"requests\": %llu,\n"
                 "  \"responses\": %llu,\n"
                 "  \"rounds_completed\": %llu,\n"
                 "  \"backpressure_rejects\": %llu,\n"
                 "  \"wall_seconds\": %.6f,\n"
                 "  \"goodput_rounds_per_s\": %.3f,\n"
                 "  \"throughput_rps\": %.3f,\n"
                 "  \"latency_us\": {\"p50\": %.1f, \"p95\": %.1f, "
                 "\"p99\": %.1f, \"max\": %.1f, \"count\": %llu},\n"
                 "  \"ok\": %s\n"
                 "}\n",
                 sessions, static_cast<unsigned long long>(rounds), threads,
                 queue, static_cast<unsigned long long>(total.requests),
                 static_cast<unsigned long long>(total.responses),
                 static_cast<unsigned long long>(total.rounds),
                 static_cast<unsigned long long>(total.backpressure), wall_s,
                 goodput, throughput, lat.p50(), lat.p95(), lat.p99(), lat.max,
                 static_cast<unsigned long long>(lat.count),
                 ok ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out.c_str());
    ok = false;
  }

  std::printf(ok ? "serve load: OK — zero dropped-but-acknowledged "
                   "requests\n"
                 : "serve load: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_serve_load", run, argc, argv);
}
