// Gateway chaos — kill -9 a shard mid-campaign and prove nothing is lost.
//
// Boots `shards` real ccdd daemon processes (fork/exec, Unix sockets,
// per-shard checkpoint directories, checkpoint_every=1) behind an
// in-process serve::Gateway, then drives `sessions` concurrent campaigns
// through the gateway from `drivers` closed-loop client threads. Once the
// campaign passes `kill_at` of its total rounds, one shard is killed with
// SIGKILL — no drain, no goodbye — and the gateway must fail over: detect
// the death, hand the victim's checkpointed sessions to the survivors,
// and keep every campaign running.
//
// The exit code is the verdict. Hard failures:
//  * any client request without exactly one response (the ledger),
//  * gateway counters that do not reconcile exactly with the
//    client-observed totals (requests == responses, and responses ==
//    local + backpressure + rejected + successful forwards + forward
//    failures),
//  * any handoff failure, or survivors whose ccd.serve.sessions_restored
//    sum differs from the gateway's sessions_handed_off,
//  * any session that does not finish its round budget,
//  * any sampled session whose final contracts are not bitwise identical
//    to an uninterrupted in-process StackelbergSimulator run on the same
//    seed — failover must be invisible in the results.
//
// With drill=1 the single SIGKILL becomes a rolling-restart drill: every
// shard in turn is SIGKILLed at a staggered point of the campaign, its
// sessions fail over to the survivors, a fresh ccdd is spawned on the
// same endpoint and rejoined with Gateway::admit_shard — which must move
// back exactly the sessions whose ring owner changed. After each death
// AND each rejoin the gateway's sessions_handed_off must equal its
// sessions_restored; at the end the drill additionally requires
// failovers == joins == shards, a zero-loss ledger, and the same bitwise
// contract samples as the undisturbed reference run.
//
// Usage: bench_gateway_chaos [shards=4] [sessions=1000] [drivers=32]
//                            [rounds=3] [workers=4] [malicious=1]
//                            [seed=3000] [kill_shard=1] [kill_at=0.25]
//                            [drill=0] [sample_every=41] [max_inflight=256]
//                            [ccdd=PATH] [out=BENCH_gateway_chaos.json]
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/stackelberg.hpp"
#include "serve/client.hpp"
#include "serve/gateway.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "bench_main.hpp"

namespace {

using namespace ccd;

struct ClientTally {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t transient_errors = 0;  // answered with an error, retried
};

std::uint64_t gateway_counter(const char* name) {
  namespace metrics = util::metrics;
  for (const metrics::MetricSnapshot& m : metrics::registry().snapshot()) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

/// Pull one counter out of a ccd metrics JSON dump (a shard's kMetrics
/// response): `"name": {"type": "counter", "value": N}`.
std::uint64_t counter_from_json(const std::string& json,
                                const std::string& name) {
  const std::string needle = "\"" + name + "\"";
  std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  pos = json.find("\"value\":", pos);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + 8, nullptr, 10);
}

std::string session_id(std::size_t n) {
  return "chaos-" + std::to_string(n);
}

/// Uninterrupted reference: the same campaign, one in-process simulator.
std::vector<contract::Contract> reference_contracts(std::uint64_t rounds,
                                                    std::uint64_t workers,
                                                    std::uint64_t malicious,
                                                    std::uint64_t seed) {
  core::SimConfig config;
  config.rounds = rounds;
  config.seed = seed;
  core::StackelbergSimulator sim(
      core::preset_fleet(workers, malicious), std::move(config));
  sim.run();
  return sim.contracts();
}

bool contracts_bitwise_equal(const std::vector<contract::Contract>& a,
                             const std::vector<contract::Contract>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_zero() != b[i].is_zero()) return false;
    if (a[i].is_zero()) continue;
    if (a[i].intervals() != b[i].intervals()) return false;
    for (std::size_t l = 0; l <= a[i].intervals(); ++l) {
      // Exact double comparison on purpose: bitwise reproducibility is
      // the contract under test.
      if (a[i].knot(l) != b[i].knot(l)) return false;
      if (a[i].payment(l) != b[i].payment(l)) return false;
    }
  }
  return true;
}

pid_t spawn_ccdd(const std::string& binary, const std::string& socket,
                 const std::string& checkpoint_dir, std::size_t max_sessions,
                 const std::string& log_path) {
  // Flush before forking so the child doesn't replay buffered output.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw ccd::Error("fork failed: " + std::string(strerror(errno)));
  if (pid > 0) return pid;
  // Child: quiet stdout/stderr into the shard log, then exec ccdd.
  std::FILE* log = std::freopen(log_path.c_str(), "w", stdout);
  if (log != nullptr) ::dup2(::fileno(stdout), 2);
  const std::string socket_arg = "socket=" + socket;
  const std::string ckpt_arg = "checkpoint_dir=" + checkpoint_dir;
  const std::string sessions_arg =
      "max_sessions=" + std::to_string(max_sessions);
  ::execl(binary.c_str(), "ccdd", socket_arg.c_str(), ckpt_arg.c_str(),
          "checkpoint_every=1", "threads=2", "queue=64", sessions_arg.c_str(),
          "resume=1", static_cast<char*>(nullptr));
  std::fprintf(stderr, "exec %s failed: %s\n", binary.c_str(),
               strerror(errno));
  ::_exit(127);
}

void wait_for_daemon(const std::string& socket) {
  for (int i = 0; i < 200; ++i) {
    try {
      serve::Client client = serve::Client::connect_unix(socket);
      (void)client.ping();
      return;
    } catch (const ccd::Error&) {
      ::usleep(50 * 1000);
    }
  }
  throw ccd::Error("daemon on " + socket + " did not come up");
}

int run(int argc, char** argv) {
  namespace metrics = util::metrics;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const std::size_t shards =
      static_cast<std::size_t>(params.get_int("shards", 4));
  const std::size_t sessions =
      static_cast<std::size_t>(params.get_int("sessions", 1000));
  const std::size_t drivers =
      static_cast<std::size_t>(params.get_int("drivers", 32));
  const std::uint64_t rounds =
      static_cast<std::uint64_t>(params.get_int("rounds", 3));
  const std::uint64_t workers =
      static_cast<std::uint64_t>(params.get_int("workers", 4));
  const std::uint64_t malicious =
      static_cast<std::uint64_t>(params.get_int("malicious", 1));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.get_int("seed", 3000));
  const bool drill = params.get_bool("drill", false);
  const long long kill_shard_param = params.get_int("kill_shard", 1);
  // The drill retires every shard in turn; the single-kill knob is moot.
  const long long kill_shard = drill ? -1 : kill_shard_param;
  const double kill_at = params.get_double("kill_at", 0.25);
  const std::size_t sample_every =
      static_cast<std::size_t>(params.get_int("sample_every", 41));
  const std::size_t max_inflight =
      static_cast<std::size_t>(params.get_int("max_inflight", 256));
  // Default ccdd path: next to this binary's build tree (bench/ ->
  // tools/), overridable for odd layouts.
  std::string default_ccdd = "tools/ccdd";
  {
    const std::string self = argv[0] != nullptr ? argv[0] : "";
    const std::size_t slash = self.rfind('/');
    if (slash != std::string::npos) {
      default_ccdd = self.substr(0, slash) + "/../tools/ccdd";
    }
  }
  const std::string ccdd_path = params.get_string("ccdd", default_ccdd);
  const std::string out =
      params.get_string("out", "BENCH_gateway_chaos.json");
  params.assert_all_consumed();

  if (shards < 2) {
    std::fprintf(stderr, "need shards >= 2 (failover needs a survivor)\n");
    return 2;
  }
  if (kill_shard >= static_cast<long long>(shards)) {
    std::fprintf(stderr, "kill_shard=%lld out of range (shards=%zu)\n",
                 kill_shard, shards);
    return 2;
  }

  if (drill) {
    std::printf("== Gateway rolling-restart drill: %zu sessions x %llu "
                "rounds over %zu ccdd shard(s), every shard killed and "
                "rejoined in turn ==\n\n",
                sessions, static_cast<unsigned long long>(rounds), shards);
  } else {
    std::printf("== Gateway chaos: %zu sessions x %llu rounds over %zu ccdd "
                "shard(s), SIGKILL shard %lld at %.0f%% ==\n\n",
                sessions, static_cast<unsigned long long>(rounds), shards,
                kill_shard, kill_at * 100.0);
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ccd_gateway_chaos_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  int exit_code = 1;
  std::vector<pid_t> pids;
  try {
    // --- Boot the fleet -------------------------------------------------
    serve::GatewayConfig gateway_config;
    for (std::size_t i = 0; i < shards; ++i) {
      serve::ShardSpec spec;
      spec.name = "shard" + std::to_string(i);
      spec.unix_socket = (dir / (spec.name + ".sock")).string();
      spec.checkpoint_dir = (dir / (spec.name + ".ckpt")).string();
      std::filesystem::create_directories(spec.checkpoint_dir);
      gateway_config.shards.push_back(spec);
    }
    for (std::size_t i = 0; i < shards; ++i) {
      const serve::ShardSpec& spec = gateway_config.shards[i];
      pids.push_back(spawn_ccdd(ccdd_path, spec.unix_socket,
                                spec.checkpoint_dir, sessions + 8,
                                (dir / (spec.name + ".log")).string()));
    }
    for (const serve::ShardSpec& spec : gateway_config.shards) {
      wait_for_daemon(spec.unix_socket);
    }

    gateway_config.unix_socket = (dir / "gateway.sock").string();
    gateway_config.max_inflight = max_inflight;
    gateway_config.health_interval_ms = 200;
    gateway_config.forward_timeout_ms = 30'000;
    serve::Gateway gateway(gateway_config);

    // Pre-kill routing snapshot: which sessions the victim owns, so the
    // bitwise sample provably covers handed-off sessions.
    std::set<std::size_t> sampled;
    const std::string victim_name =
        kill_shard >= 0 ? "shard" + std::to_string(kill_shard) : "";
    std::size_t victims_sampled = 0;
    std::size_t victim_sessions = 0;
    for (std::size_t n = 0; n < sessions; ++n) {
      const bool on_victim = gateway.shard_for(session_id(n)) == victim_name;
      victim_sessions += on_victim ? 1 : 0;
      if (n % sample_every == 0 || (on_victim && victims_sampled < 16)) {
        sampled.insert(n);
        victims_sampled += on_victim ? 1 : 0;
      }
    }

    // --- Drive the campaign --------------------------------------------
    std::vector<ClientTally> tallies(drivers);
    std::atomic<bool> failed{false};
    std::atomic<std::uint64_t> rounds_done{0};
    const std::uint64_t total_rounds = sessions * rounds;
    const auto t0 = std::chrono::steady_clock::now();

    // A request is answered with an error status when the gateway's
    // forward budget is exhausted mid-failover; that answer is part of
    // the ledger, and the op is safe to reissue (advance is budget-
    // capped). The retry cap bounds a genuinely wedged fleet.
    const auto call_admitted = [&](serve::Client& client,
                                   ClientTally& tally,
                                   serve::Request request) -> serve::Response {
      std::uint64_t request_id = 0;
      for (int attempt = 0; attempt < 200; ++attempt) {
        request.request_id = ++request_id;
        ++tally.requests;
        serve::Response response = client.call(request);
        ++tally.responses;
        if (response.status == serve::Status::kBackpressure) {
          ++tally.backpressure;
          ::usleep(200);
          continue;
        }
        if (serve::is_error(response.status)) {
          ++tally.transient_errors;
          ::usleep(10 * 1000);
          continue;
        }
        return response;
      }
      throw ccd::Error("request not admitted after 200 attempts (op " +
                       std::string(to_string(request.op)) + ", session '" +
                       request.session + "')");
    };

    std::vector<std::thread> threads;
    threads.reserve(drivers);
    for (std::size_t d = 0; d < drivers; ++d) {
      threads.emplace_back([&, d] {
        try {
          // No client-side reconnects: the gateway must never drop a
          // client connection, even while a shard dies under it.
          serve::ClientOptions options;
          options.io_timeout_ms = 0;
          options.max_reconnects = 0;
          serve::Client client = serve::Client::connect_unix(
              gateway_config.unix_socket, options);
          ClientTally& tally = tallies[d];

          std::vector<std::size_t> mine;
          for (std::size_t n = d; n < sessions; n += drivers) {
            mine.push_back(n);
          }
          for (std::size_t n : mine) {
            serve::Request open;
            open.op = serve::Op::kOpen;
            open.session = session_id(n);
            open.open.rounds = rounds;
            open.open.workers = workers;
            open.open.malicious = malicious;
            open.open.seed = seed + n;
            open.open.allow_existing = true;  // reissue-safe
            call_admitted(client, tally, open);
          }
          // Round-robin one round at a time across this driver's
          // sessions: the fleet-wide interleaving keeps every shard busy
          // when the kill lands.
          std::vector<bool> finished(mine.size(), false);
          std::size_t remaining = mine.size();
          while (remaining > 0) {
            for (std::size_t i = 0; i < mine.size(); ++i) {
              if (finished[i]) continue;
              serve::Request advance;
              advance.op = serve::Op::kAdvance;
              advance.session = session_id(mine[i]);
              advance.advance_rounds = 1;
              const serve::Response r =
                  call_admitted(client, tally, advance);
              rounds_done.fetch_add(1, std::memory_order_relaxed);
              if (r.session.finished) {
                finished[i] = true;
                --remaining;
              }
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "driver %zu failed: %s\n", d, e.what());
          failed.store(true);
        }
      });
    }

    // --- Chaos ----------------------------------------------------------
    double kill_after_s = 0.0;
    std::size_t drill_kills = 0;
    std::size_t drill_rejoins = 0;
    std::size_t drill_rejoin_moved = 0;
    bool drill_stage_ok = true;
    if (drill) {
      // Rolling restart: kill + rejoin each shard in turn, all of it
      // under live traffic. A kill -> failover -> rejoin cycle takes wall
      // time during which the drivers keep completing rounds, so the
      // schedule is dynamic: after each rejoin, wait for a burst of
      // traffic to flow through the NEW ring, then fell the next shard —
      // and hard-fail if the round budget ran dry before every shard got
      // its turn (the restarts must not land on a drained fleet).
      const std::uint64_t live_gap =
          std::max<std::uint64_t>(total_rounds / (8 * shards), 1);
      std::uint64_t next_kill_floor = live_gap;
      for (std::size_t i = 0; i < shards; ++i) {
        while (rounds_done.load(std::memory_order_relaxed) <
                   next_kill_floor &&
               !failed.load()) {
          ::usleep(1000);
        }
        if (failed.load()) break;
        const std::uint64_t at_kill =
            rounds_done.load(std::memory_order_relaxed);
        if (at_kill + total_rounds / 10 > total_rounds) {
          std::fprintf(stderr,
                       "FAIL: drill: campaign nearly drained (%llu/%llu "
                       "rounds) before killing shard %zu — raise rounds= "
                       "so every restart happens under live traffic\n",
                       static_cast<unsigned long long>(at_kill),
                       static_cast<unsigned long long>(total_rounds), i);
          drill_stage_ok = false;
          break;
        }
        const serve::ShardSpec& spec = gateway_config.shards[i];
        if (drill_kills == 0) {
          kill_after_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        }
        std::printf("drill: killing %s (pid %d) after %llu/%llu rounds...\n",
                    spec.name.c_str(), pids[i],
                    static_cast<unsigned long long>(rounds_done.load()),
                    static_cast<unsigned long long>(total_rounds));
        std::fflush(stdout);
        ::kill(pids[i], SIGKILL);
        int status = 0;
        ::waitpid(pids[i], &status, 0);
        ++drill_kills;

        // The health prober owns death detection. Wait until the victim
        // left the ring; its checkpoint handoff runs under the same
        // mutex admit_shard takes, so the rejoin below cannot overtake
        // the failover.
        bool dead_seen = false;
        for (int w = 0; w < 600; ++w) {
          if (gateway.alive_shard_count() == shards - 1) {
            dead_seen = true;
            break;
          }
          ::usleep(100 * 1000);
        }
        if (!dead_seen) {
          std::fprintf(stderr,
                       "FAIL: drill: gateway never noticed %s dying\n",
                       spec.name.c_str());
          drill_stage_ok = false;
          break;
        }

        // Same endpoint, fresh process — the daemon side of a restart.
        pids[i] = spawn_ccdd(ccdd_path, spec.unix_socket,
                             spec.checkpoint_dir, sessions + 8,
                             (dir / (spec.name + ".rejoin.log")).string());
        wait_for_daemon(spec.unix_socket);
        serve::Gateway::AdminResult joined;
        bool admitted = false;
        for (int attempt = 0; attempt < 100; ++attempt) {
          joined = gateway.admit_shard(spec);
          if (joined.status == serve::Status::kOk) {
            admitted = true;
            break;
          }
          ::usleep(100 * 1000);
        }
        if (!admitted) {
          std::fprintf(stderr, "FAIL: drill: rejoin of %s refused: %s\n",
                       spec.name.c_str(), joined.message.c_str());
          drill_stage_ok = false;
          break;
        }
        ++drill_rejoins;
        drill_rejoin_moved += joined.sessions_moved;
        std::printf("drill: rejoined %s (ring v%llu, %zu session(s) moved "
                    "back)\n",
                    spec.name.c_str(),
                    static_cast<unsigned long long>(joined.ring_version),
                    joined.sessions_moved);
        std::fflush(stdout);
        // The handoff ledger must reconcile after every death + rejoin
        // pair, not just at the end.
        const std::uint64_t stage_handed_off =
            gateway_counter("ccd.gateway.sessions_handed_off");
        const std::uint64_t stage_restored =
            gateway_counter("ccd.gateway.sessions_restored");
        if (stage_handed_off != stage_restored) {
          std::fprintf(stderr,
                       "FAIL: drill stage %zu: handed_off %llu != "
                       "restored %llu\n",
                       i, static_cast<unsigned long long>(stage_handed_off),
                       static_cast<unsigned long long>(stage_restored));
          drill_stage_ok = false;
        }
        next_kill_floor =
            rounds_done.load(std::memory_order_relaxed) + live_gap;
      }
    } else if (kill_shard >= 0) {
      const auto threshold =
          static_cast<std::uint64_t>(kill_at * static_cast<double>(total_rounds));
      while (rounds_done.load(std::memory_order_relaxed) < threshold &&
             !failed.load()) {
        ::usleep(1000);
      }
      kill_after_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      std::printf("killing %s (pid %d) after %llu/%llu rounds...\n",
                  victim_name.c_str(),
                  pids[static_cast<std::size_t>(kill_shard)],
                  static_cast<unsigned long long>(rounds_done.load()),
                  static_cast<unsigned long long>(total_rounds));
      std::fflush(stdout);
      ::kill(pids[static_cast<std::size_t>(kill_shard)], SIGKILL);
      int status = 0;
      ::waitpid(pids[static_cast<std::size_t>(kill_shard)], &status, 0);
    }

    for (std::thread& t : threads) t.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

    // --- Verify ---------------------------------------------------------
    bool ok = !failed.load();

    // Bitwise check before touching counters is fine: verification
    // traffic is tallied like campaign traffic, and the reconciliation
    // below reads the counters after ALL traffic is done.
    serve::ClientOptions options;
    options.max_reconnects = 0;
    serve::Client verifier =
        serve::Client::connect_unix(gateway_config.unix_socket, options);
    ClientTally verify_tally;
    std::size_t bitwise_mismatches = 0;
    std::size_t unfinished = 0;
    for (std::size_t n : sampled) {
      serve::Request status_req;
      status_req.op = serve::Op::kStatus;
      status_req.session = session_id(n);
      const serve::Response status =
          call_admitted(verifier, verify_tally, status_req);
      if (!status.session.finished) {
        ++unfinished;
        continue;
      }
      serve::Request contracts_req;
      contracts_req.op = serve::Op::kContracts;
      contracts_req.session = session_id(n);
      const serve::Response got =
          call_admitted(verifier, verify_tally, contracts_req);
      if (!contracts_bitwise_equal(
              got.contracts,
              reference_contracts(rounds, workers, malicious, seed + n))) {
        std::fprintf(stderr,
                     "FAIL: session %s contracts differ from the "
                     "uninterrupted reference run\n",
                     session_id(n).c_str());
        ++bitwise_mismatches;
      }
    }
    if (unfinished > 0) {
      std::fprintf(stderr, "FAIL: %zu sampled session(s) never finished\n",
                   unfinished);
      ok = false;
    }
    if (bitwise_mismatches > 0) ok = false;

    // Survivors' ledger: every session the gateway claims to have handed
    // off must have been installed by exactly one surviving shard. A
    // restore that races a retried advance can land as a reload (the
    // restore checkpoints to disk before publishing, and the advance
    // reloads those same bytes) — same session, same bits, different
    // counter — so the exact invariant is restored + reloaded, and
    // nothing in this bench reloads for any other reason.
    std::uint64_t survivors_restored = 0;
    for (std::size_t i = 0; i < shards; ++i) {
      if (static_cast<long long>(i) == kill_shard) continue;
      serve::Client shard_client = serve::Client::connect_unix(
          gateway_config.shards[i].unix_socket, options);
      const std::string shard_metrics = shard_client.metrics(false);
      survivors_restored +=
          counter_from_json(shard_metrics, "ccd.serve.sessions_restored") +
          counter_from_json(shard_metrics, "ccd.serve.sessions_reloaded");
    }

    ClientTally total = verify_tally;
    for (const ClientTally& t : tallies) {
      total.requests += t.requests;
      total.responses += t.responses;
      total.backpressure += t.backpressure;
      total.transient_errors += t.transient_errors;
    }

    const std::uint64_t gw_forwards = gateway_counter("ccd.gateway.forwards");
    const std::uint64_t gw_retries =
        gateway_counter("ccd.gateway.forward_retries");
    const std::uint64_t gw_forward_failures =
        gateway_counter("ccd.gateway.forward_failures");
    const std::uint64_t gw_failovers =
        gateway_counter("ccd.gateway.failovers");
    const std::uint64_t gw_handed_off =
        gateway_counter("ccd.gateway.sessions_handed_off");
    const std::uint64_t gw_handoff_failures =
        gateway_counter("ccd.gateway.handoff_failures");
    const std::uint64_t gw_restored =
        gateway_counter("ccd.gateway.sessions_restored");
    const std::uint64_t gw_joins = gateway_counter("ccd.gateway.joins");

    if (total.responses != total.requests) {
      std::fprintf(stderr,
                   "FAIL: clients sent %llu requests, received %llu "
                   "responses\n",
                   static_cast<unsigned long long>(total.requests),
                   static_cast<unsigned long long>(total.responses));
      ok = false;
    }
    // The ledger checks.
    const std::uint64_t gw_requests = gateway_counter("ccd.gateway.requests");
    const std::uint64_t gw_responses =
        gateway_counter("ccd.gateway.responses");
    const std::uint64_t gw_local = gateway_counter("ccd.gateway.local");
    const std::uint64_t gw_backpressure =
        gateway_counter("ccd.gateway.backpressure");
    const std::uint64_t gw_rejected = gateway_counter("ccd.gateway.rejected");
    if (gw_requests != total.requests || gw_responses != total.requests) {
      std::fprintf(stderr,
                   "FAIL: gateway ledger (requests=%llu responses=%llu) "
                   "does not reconcile with client-observed %llu\n",
                   static_cast<unsigned long long>(gw_requests),
                   static_cast<unsigned long long>(gw_responses),
                   static_cast<unsigned long long>(total.requests));
      ok = false;
    }
    if (gw_responses != gw_local + gw_backpressure + gw_rejected +
                            (gw_forwards - gw_retries) + gw_forward_failures) {
      std::fprintf(stderr,
                   "FAIL: gateway response breakdown does not reconcile: "
                   "%llu != local %llu + backpressure %llu + rejected %llu "
                   "+ (forwards %llu - retries %llu) + failures %llu\n",
                   static_cast<unsigned long long>(gw_responses),
                   static_cast<unsigned long long>(gw_local),
                   static_cast<unsigned long long>(gw_backpressure),
                   static_cast<unsigned long long>(gw_rejected),
                   static_cast<unsigned long long>(gw_forwards),
                   static_cast<unsigned long long>(gw_retries),
                   static_cast<unsigned long long>(gw_forward_failures));
      ok = false;
    }
    if (gw_handoff_failures != 0) {
      std::fprintf(stderr, "FAIL: %llu session handoff(s) failed\n",
                   static_cast<unsigned long long>(gw_handoff_failures));
      ok = false;
    }
    if (!drill && kill_shard >= 0 && gw_failovers != 1) {
      std::fprintf(stderr, "FAIL: expected exactly 1 failover, saw %llu\n",
                   static_cast<unsigned long long>(gw_failovers));
      ok = false;
    }
    if (gw_handed_off != gw_restored) {
      std::fprintf(stderr,
                   "FAIL: gateway handed off %llu session(s) but restored "
                   "%llu\n",
                   static_cast<unsigned long long>(gw_handed_off),
                   static_cast<unsigned long long>(gw_restored));
      ok = false;
    }
    if (drill && gw_failovers != shards) {
      std::fprintf(stderr,
                   "FAIL: drill killed %zu shard(s) but the gateway saw "
                   "%llu failover(s)\n",
                   shards, static_cast<unsigned long long>(gw_failovers));
      ok = false;
    }
    if (drill && gw_joins != shards) {
      std::fprintf(stderr,
                   "FAIL: drill rejoined %zu shard(s) but the gateway "
                   "counted %llu join(s)\n",
                   shards, static_cast<unsigned long long>(gw_joins));
      ok = false;
    }
    // The shard-side cross-check only holds when no shard restarted (a
    // restart zeroes the shard's own counters); the drill relies on the
    // gateway-side handed_off == restored ledger instead.
    if (!drill && survivors_restored != gw_handed_off) {
      std::fprintf(stderr,
                   "FAIL: gateway handed off %llu session(s) but survivors "
                   "restored %llu\n",
                   static_cast<unsigned long long>(gw_handed_off),
                   static_cast<unsigned long long>(survivors_restored));
      ok = false;
    }
    if (drill && !drill_stage_ok) ok = false;
    if (drill && drill_rejoins != shards) ok = false;

    // --- Teardown -------------------------------------------------------
    verifier.shutdown_server();  // broadcast: drains every surviving shard
    for (std::size_t i = 0; i < shards; ++i) {
      if (static_cast<long long>(i) == kill_shard) continue;
      int status = 0;
      ::waitpid(pids[i], &status, 0);
    }
    pids.clear();
    gateway.stop();

    const double throughput =
        wall_s > 0.0 ? static_cast<double>(total.responses) / wall_s : 0.0;
    std::printf("\nrequests sent         : %llu\n",
                static_cast<unsigned long long>(total.requests));
    std::printf("responses received    : %llu\n",
                static_cast<unsigned long long>(total.responses));
    std::printf("backpressure rejects  : %llu\n",
                static_cast<unsigned long long>(total.backpressure));
    std::printf("transient error resps : %llu\n",
                static_cast<unsigned long long>(total.transient_errors));
    std::printf("forwards / retries    : %llu / %llu\n",
                static_cast<unsigned long long>(gw_forwards),
                static_cast<unsigned long long>(gw_retries));
    std::printf("failovers             : %llu (victim owned %zu sessions, "
                "%llu handed off, %llu restored, %llu failures)\n",
                static_cast<unsigned long long>(gw_failovers),
                victim_sessions,
                static_cast<unsigned long long>(gw_handed_off),
                static_cast<unsigned long long>(gw_restored),
                static_cast<unsigned long long>(gw_handoff_failures));
    if (drill) {
      std::printf("rolling restart       : %zu kill(s), %zu rejoin(s), "
                  "%zu session(s) moved back on rejoin\n",
                  drill_kills, drill_rejoins, drill_rejoin_moved);
    }
    std::printf("bitwise samples       : %zu (%zu from the victim), "
                "%zu mismatches\n",
                sampled.size(), victims_sampled, bitwise_mismatches);
    std::printf("wall time             : %.3f s (kill at %.3f s)\n", wall_s,
                kill_after_s);
    std::printf("throughput            : %.1f responses/s\n", throughput);

    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(
          f,
          "{\n"
          "  \"bench\": \"gateway_chaos\",\n"
          "  \"shards\": %zu,\n"
          "  \"sessions\": %zu,\n"
          "  \"rounds_per_session\": %llu,\n"
          "  \"requests\": %llu,\n"
          "  \"responses\": %llu,\n"
          "  \"backpressure_rejects\": %llu,\n"
          "  \"transient_error_responses\": %llu,\n"
          "  \"forwards\": %llu,\n"
          "  \"forward_retries\": %llu,\n"
          "  \"forward_failures\": %llu,\n"
          "  \"failovers\": %llu,\n"
          "  \"victim_sessions\": %zu,\n"
          "  \"sessions_handed_off\": %llu,\n"
          "  \"sessions_restored\": %llu,\n"
          "  \"handoff_failures\": %llu,\n"
          "  \"survivors_restored\": %llu,\n"
          "  \"drill\": %s,\n"
          "  \"drill_kills\": %zu,\n"
          "  \"drill_rejoins\": %zu,\n"
          "  \"drill_rejoin_sessions_moved\": %zu,\n"
          "  \"joins\": %llu,\n"
          "  \"bitwise_samples\": %zu,\n"
          "  \"bitwise_mismatches\": %zu,\n"
          "  \"kill_after_seconds\": %.6f,\n"
          "  \"wall_seconds\": %.6f,\n"
          "  \"throughput_rps\": %.3f,\n"
          "  \"ok\": %s\n"
          "}\n",
          shards, sessions, static_cast<unsigned long long>(rounds),
          static_cast<unsigned long long>(total.requests),
          static_cast<unsigned long long>(total.responses),
          static_cast<unsigned long long>(total.backpressure),
          static_cast<unsigned long long>(total.transient_errors),
          static_cast<unsigned long long>(gw_forwards),
          static_cast<unsigned long long>(gw_retries),
          static_cast<unsigned long long>(gw_forward_failures),
          static_cast<unsigned long long>(gw_failovers), victim_sessions,
          static_cast<unsigned long long>(gw_handed_off),
          static_cast<unsigned long long>(gw_restored),
          static_cast<unsigned long long>(gw_handoff_failures),
          static_cast<unsigned long long>(survivors_restored),
          drill ? "true" : "false", drill_kills, drill_rejoins,
          drill_rejoin_moved, static_cast<unsigned long long>(gw_joins),
          sampled.size(), bitwise_mismatches, kill_after_s, wall_s,
          throughput, ok ? "true" : "false");
      std::fclose(f);
      std::printf("wrote %s\n", out.c_str());
    } else {
      std::fprintf(stderr, "cannot open '%s' for writing\n", out.c_str());
      ok = false;
    }

    std::printf(ok ? "gateway chaos: OK — fail over left no request "
                     "unanswered and no bit changed\n"
                   : "gateway chaos: FAILED\n");
    exit_code = ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gateway chaos: %s\n", e.what());
    exit_code = 1;
  }

  // Belt and braces: never leave ccdd orphans behind.
  for (pid_t pid : pids) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  std::filesystem::remove_all(dir);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_gateway_chaos", run, argc, argv);
}
