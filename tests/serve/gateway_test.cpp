// serve::Gateway over an in-process fleet: consistent-hash routing that
// is stable and covers every shard, session traffic through the gateway
// bitwise-identical to the bare simulator, checkpoint handoff on shard
// retirement continuing campaigns bitwise on the survivors, restore
// idempotence, health aggregation, the socket front end (a Client cannot
// tell the gateway from a single ccdd, and its listener drops corrupt
// frames, gates tokens and times out idle clients like ccdd's), and
// shutdown broadcast.
#include "serve/gateway.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/stackelberg.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"

namespace ccd::serve {
namespace {

Request make_open(const std::string& session, std::uint64_t rounds,
                  std::uint64_t seed) {
  Request request;
  request.op = Op::kOpen;
  request.session = session;
  request.open.mode = SessionMode::kSimulation;
  request.open.rounds = rounds;
  request.open.workers = 5;
  request.open.malicious = 2;
  request.open.seed = seed;
  request.open.allow_existing = true;
  return request;
}

Request make_advance(const std::string& session, std::uint64_t rounds) {
  Request request;
  request.op = Op::kAdvance;
  request.session = session;
  request.advance_rounds = rounds;
  return request;
}

Request make_contracts(const std::string& session) {
  Request request;
  request.op = Op::kContracts;
  request.session = session;
  return request;
}

void expect_contracts_equal(const std::vector<contract::Contract>& a,
                            const std::vector<contract::Contract>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].is_zero(), b[i].is_zero()) << "worker " << i;
    if (a[i].is_zero()) continue;
    ASSERT_EQ(a[i].intervals(), b[i].intervals()) << "worker " << i;
    for (std::size_t l = 0; l <= a[i].intervals(); ++l) {
      EXPECT_EQ(a[i].knot(l), b[i].knot(l)) << "worker " << i;
      EXPECT_EQ(a[i].payment(l), b[i].payment(l)) << "worker " << i;
    }
  }
}

std::vector<contract::Contract> reference_contracts(std::uint64_t rounds,
                                                    std::uint64_t seed) {
  core::SimConfig config;
  config.rounds = rounds;
  config.seed = seed;
  core::StackelbergSimulator sim(core::preset_fleet(5, 2), config);
  sim.run();
  return sim.contracts();
}

/// An in-process fleet (Engine + Server per shard, checkpoint dirs wired
/// for handoff) fronted by one Gateway. The prober is off by default so
/// failover in these tests happens only where a test asks for it.
class GatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ccd_gateway_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    gateway_.reset();
    for (std::unique_ptr<Server>& server : servers_) {
      if (server) server->stop();
    }
    for (std::unique_ptr<Engine>& engine : engines_) {
      if (engine) engine->stop();
    }
    servers_.clear();
    engines_.clear();
    std::filesystem::remove_all(dir_);
  }

  ShardSpec shard_spec(std::size_t index) const {
    const std::string name = "shard" + std::to_string(index);
    ShardSpec spec;
    spec.name = name;
    spec.unix_socket = (dir_ / (name + ".sock")).string();
    spec.checkpoint_dir = (dir_ / (name + ".ckpt")).string();
    return spec;
  }

  /// (Re)create the Engine + Server backing shard `index` on its usual
  /// socket and checkpoint directory — the daemon side of a (re)join.
  void start_shard_backend(std::size_t index) {
    const ShardSpec spec = shard_spec(index);
    std::filesystem::create_directories(spec.checkpoint_dir);
    if (engines_.size() <= index) engines_.resize(index + 1);
    if (servers_.size() <= index) servers_.resize(index + 1);

    EngineConfig ec;
    ec.worker_threads = 2;
    ec.checkpoint_dir = spec.checkpoint_dir;
    ec.checkpoint_every = 1;
    ec.idle_ttl_ms = idle_ttl_ms_;
    engines_[index] = std::make_unique<Engine>(ec);

    ServerConfig sc;
    sc.unix_socket = spec.unix_socket;
    servers_[index] = std::make_unique<Server>(sc, *engines_[index]);
  }

  void start_fleet(std::size_t count, std::size_t max_inflight = 256,
                   std::size_t idle_ttl_ms = 0) {
    idle_ttl_ms_ = idle_ttl_ms;
    GatewayConfig config;
    for (std::size_t i = 0; i < count; ++i) {
      start_shard_backend(i);
      config.shards.push_back(shard_spec(i));
    }
    config.unix_socket = (dir_ / "gateway.sock").string();
    config.max_inflight = max_inflight;
    config.health_interval_ms = 0;  // no prober; failover is test-driven
    config.connect_retry.sleep = false;
    gateway_ = std::make_unique<Gateway>(std::move(config));
  }

  /// Kill one shard the graceful way: stop its socket front end, then
  /// drain its engine (which checkpoints every open session).
  void stop_shard(std::size_t index) {
    servers_[index]->stop();
    engines_[index]->stop();
  }

  Response call(Request request) {
    request.request_id = next_request_id_++;
    return gateway_->handle(std::move(request));
  }

  /// Advance `session` to completion through the gateway, riding out
  /// backpressure; every terminal response must be kOk.
  SessionStatus finish(const std::string& session) {
    for (int i = 0; i < 10'000; ++i) {
      const Response r = call(make_advance(session, 2));
      if (r.status == Status::kBackpressure) continue;
      EXPECT_EQ(r.status, Status::kOk) << r.message;
      if (r.status != Status::kOk) break;
      if (r.session.finished) return r.session;
    }
    ADD_FAILURE() << "session '" << session << "' never finished";
    return {};
  }

  std::filesystem::path dir_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<Gateway> gateway_;
  std::uint64_t next_request_id_ = 1;
  std::size_t idle_ttl_ms_ = 0;
};

// Each GatewayConfig check is a ConfigError (ccd-gateway exits 2), thrown
// before any listener or prober starts.
TEST(GatewayConfigTest, ChecksThrowConfigError) {
  GatewayConfig valid;
  valid.unix_socket = "gw.sock";
  valid.shards = {ShardSpec::parse("a=unix:a.sock"),
                  ShardSpec::parse("b=unix:b.sock")};
  EXPECT_NO_THROW(valid.validate());

  GatewayConfig c = valid;
  c.shards.clear();
  EXPECT_THROW(c.validate(), ConfigError);
  c = valid;
  c.unix_socket.clear();
  EXPECT_THROW(c.validate(), ConfigError);
  c = valid;
  c.max_inflight = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = valid;
  c.virtual_nodes = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = valid;
  c.shards.push_back(ShardSpec::parse("a=unix:other.sock"));
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(ShardSpecTest, ParseGrammarAndWireRoundTrip) {
  const ShardSpec unix_spec = ShardSpec::parse("a=unix:/tmp/a.sock@/tmp/ck");
  EXPECT_EQ(unix_spec.name, "a");
  EXPECT_EQ(unix_spec.unix_socket, "/tmp/a.sock");
  EXPECT_EQ(unix_spec.checkpoint_dir, "/tmp/ck");

  const ShardSpec tcp_spec = ShardSpec::parse("b=tcp:10.0.0.7:7000");
  EXPECT_EQ(tcp_spec.name, "b");
  EXPECT_EQ(tcp_spec.host, "10.0.0.7");
  EXPECT_EQ(tcp_spec.tcp_port, 7000);
  EXPECT_TRUE(tcp_spec.checkpoint_dir.empty());

  EXPECT_THROW(ShardSpec::parse("garbage"), ConfigError);
  EXPECT_THROW(ShardSpec::parse("=unix:/tmp/a"), ConfigError);
  EXPECT_THROW(ShardSpec::parse("x=tcp:9"), ConfigError);
  EXPECT_THROW(ShardSpec::parse("x=tcp:h:notaport"), ConfigError);
  EXPECT_THROW(ShardSpec::parse("x=ftp:nope"), ConfigError);

  // kJoin frame conversion preserves the dial target exactly.
  const ShardSpec back = ShardSpec::from_target(unix_spec.to_target());
  EXPECT_EQ(back.name, unix_spec.name);
  EXPECT_TRUE(back.same_target(unix_spec));
  EXPECT_TRUE(ShardSpec::from_target(tcp_spec.to_target())
                  .same_target(tcp_spec));
  EXPECT_FALSE(unix_spec.same_target(tcp_spec));
}

TEST_F(GatewayTest, RoutingIsStableAndCoversEveryShard) {
  start_fleet(3);
  std::map<std::string, int> owned;
  for (int i = 0; i < 200; ++i) {
    const std::string id = "route-" + std::to_string(i);
    const std::string owner = gateway_->shard_for(id);
    EXPECT_EQ(gateway_->shard_for(id), owner);  // stable
    ++owned[owner];
  }
  ASSERT_EQ(owned.size(), 3u);  // every shard owns a share
  for (const auto& [name, count] : owned) {
    EXPECT_GT(count, 0) << name;
  }
}

TEST_F(GatewayTest, SessionsThroughTheGatewayMatchTheSimulatorBitwise) {
  constexpr std::uint64_t kRounds = 8;
  constexpr std::size_t kSessions = 6;
  start_fleet(3);

  EXPECT_EQ(call(Request{}).text, "ccd-gateway/3");  // kPing default op

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "gw-" + std::to_string(s);
    ASSERT_EQ(call(make_open(id, kRounds, 300 + s)).status, Status::kOk);
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "gw-" + std::to_string(s);
    const SessionStatus status = finish(id);
    EXPECT_EQ(status.next_round, kRounds);
    const Response got = call(make_contracts(id));
    ASSERT_EQ(got.status, Status::kOk);
    expect_contracts_equal(got.contracts,
                           reference_contracts(kRounds, 300 + s));
  }

  // The sessions really are spread over the shard engines, and each
  // engine holds exactly the ids the ring assigns it.
  std::size_t total = 0;
  for (const std::unique_ptr<Engine>& engine : engines_) {
    total += engine->session_count();
  }
  EXPECT_EQ(total, kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "gw-" + std::to_string(s);
    const std::string owner = gateway_->shard_for(id);
    const std::size_t index = owner.back() - '0';
    ASSERT_LT(index, engines_.size());
    EXPECT_EQ(call(make_contracts(id)).status, Status::kOk);
    EXPECT_GE(engines_[index]->session_count(), 1u) << id;
  }

  // Health aggregates the fleet.
  Request health;
  health.op = Op::kHealth;
  const Response h = call(health);
  ASSERT_EQ(h.status, Status::kOk);
  EXPECT_EQ(h.health.sessions_open, kSessions);
  EXPECT_FALSE(h.health.draining);
}

TEST_F(GatewayTest, RetiredShardsSessionsContinueBitwiseOnSurvivors) {
  constexpr std::uint64_t kRounds = 10;
  constexpr std::size_t kSessions = 9;
  start_fleet(3);

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "fo-" + std::to_string(s);
    ASSERT_EQ(call(make_open(id, kRounds, 600 + s)).status, Status::kOk);
    ASSERT_EQ(call(make_advance(id, 4)).status, Status::kOk);
  }

  // Retire the shard owning fo-0 (stopping its engine checkpoints every
  // session at round 4); its campaigns must continue on the survivors.
  const std::string victim = gateway_->shard_for("fo-0");
  const std::size_t victim_index = victim.back() - '0';
  std::size_t victim_sessions = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    if (gateway_->shard_for("fo-" + std::to_string(s)) == victim) {
      ++victim_sessions;
    }
  }
  ASSERT_GE(victim_sessions, 1u);
  stop_shard(victim_index);
  // Handoff unlinks scavenged checkpoints (so a rejoin cannot resurrect
  // them); capture fo-0's round-4 frame first for the replay check below.
  const std::string round4_blob = util::read_file(
      (dir_ / (victim + ".ckpt") /
       ("fo-0" + std::string(Session::checkpoint_suffix(
                     SessionMode::kSimulation))))
          .string());
  ASSERT_FALSE(round4_blob.empty());
  EXPECT_EQ(gateway_->retire_shard(victim).status, Status::kOk);
  EXPECT_EQ(gateway_->alive_shard_count(), 2u);
  EXPECT_NE(gateway_->shard_for("fo-0"), victim);

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "fo-" + std::to_string(s);
    EXPECT_EQ(finish(id).next_round, kRounds);
    const Response got = call(make_contracts(id));
    ASSERT_EQ(got.status, Status::kOk) << got.message;
    expect_contracts_equal(got.contracts,
                           reference_contracts(kRounds, 600 + s));
  }

  // A replayed handoff restore is idempotent: the new owner reports the
  // (finished) session instead of double-installing the old round-4 state.
  Request replay;
  replay.op = Op::kRestore;
  replay.session = "fo-0";
  replay.checkpoint_blob = round4_blob;
  const Response replayed = call(replay);
  ASSERT_EQ(replayed.status, Status::kOk) << replayed.message;
  EXPECT_TRUE(replayed.session.finished);
}

TEST_F(GatewayTest, RetireIsIdempotentAndLastShardLossIsRetryable) {
  start_fleet(1);
  // Unknown and repeated retires are admin races, not config errors: they
  // report a status instead of throwing (and never exit-code-2 a ccdctl).
  EXPECT_EQ(gateway_->retire_shard("nope").status, Status::kUnavailable);

  ASSERT_EQ(call(make_open("last", 4, 9)).status, Status::kOk);
  stop_shard(0);
  EXPECT_EQ(gateway_->retire_shard("shard0").status, Status::kOk);
  EXPECT_EQ(gateway_->retire_shard("shard0").status, Status::kOk);
  EXPECT_EQ(gateway_->alive_shard_count(), 0u);

  // An all-dead ring answers kUnavailable — retryable (a client waits out
  // the rolling restart), and distinct from a genuine request error.
  const Response r = call(make_advance("last", 1));
  EXPECT_EQ(r.status, Status::kUnavailable);
  EXPECT_NE(r.message.find("no alive shard"), std::string::npos) << r.message;
  EXPECT_THROW(gateway_->shard_for("last"), ConfigError);
}

TEST_F(GatewayTest, SocketFrontEndIsIndistinguishableFromASingleDaemon) {
  constexpr std::uint64_t kRounds = 6;
  start_fleet(2);

  Client client =
      Client::connect_unix((dir_ / "gateway.sock").string());
  EXPECT_EQ(client.ping(), "ccd-gateway/3");

  OpenParams open;
  open.rounds = kRounds;
  open.workers = 5;
  open.malicious = 2;
  open.seed = 77;
  client.open("viasock", open);
  SessionStatus status;
  do {
    const Client::AdvanceResult step = client.advance("viasock", 2);
    ASSERT_FALSE(step.deadline_expired);
    if (step.backpressure) continue;
    status = step.session;
  } while (!status.finished);
  expect_contracts_equal(client.contracts("viasock"),
                         reference_contracts(kRounds, 77));

  const HealthInfo health = client.health();
  EXPECT_EQ(health.sessions_open, 1u);
  EXPECT_GT(health.max_sessions, 0u);

  const std::string metrics = client.metrics(false);
  EXPECT_NE(metrics.find("ccd.gateway.requests"), std::string::npos);

  // Shutdown broadcasts to every shard and drains the gateway itself.
  client.shutdown_server();
  EXPECT_TRUE(gateway_->shutdown_requested());
  for (const std::unique_ptr<Engine>& engine : engines_) {
    EXPECT_TRUE(engine->shutdown_requested());
  }
  Request late = make_advance("viasock", 1);
  late.request_id = 999'999;
  EXPECT_EQ(client.call(late).status, Status::kShuttingDown);
}

TEST_F(GatewayTest, RejoinMovesOnlyOwnerChangedSessions) {
  constexpr std::uint64_t kRounds = 8;
  constexpr std::size_t kSessions = 12;
  start_fleet(3);

  std::vector<std::string> ids;
  std::map<std::string, std::string> owner_with_3;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "rj-" + std::to_string(s);
    ids.push_back(id);
    ASSERT_EQ(call(make_open(id, kRounds, 900 + s)).status, Status::kOk);
    ASSERT_EQ(call(make_advance(id, 3)).status, Status::kOk);
    owner_with_3[id] = gateway_->shard_for(id);
  }

  // Gracefully retire shard2; its sessions fail over to the survivors.
  std::size_t victim_sessions = 0;
  for (const std::string& id : ids) {
    if (owner_with_3[id] == "shard2") ++victim_sessions;
  }
  ASSERT_GE(victim_sessions, 1u);
  const std::uint64_t version_before = gateway_->ring_version();
  stop_shard(2);
  ASSERT_EQ(gateway_->retire_shard("shard2").status, Status::kOk);
  EXPECT_GT(gateway_->ring_version(), version_before);
  std::map<std::string, std::string> owner_with_2;
  for (const std::string& id : ids) {
    owner_with_2[id] = gateway_->shard_for(id);
    // Removal moves only the victim's keys (consistent hashing).
    if (owner_with_3[id] != "shard2") {
      EXPECT_EQ(owner_with_2[id], owner_with_3[id]) << id;
    }
  }

  // Bring the daemon back on the same endpoint and rejoin it.
  start_shard_backend(2);
  const std::uint64_t version_retired = gateway_->ring_version();
  const Gateway::AdminResult joined = gateway_->admit_shard(shard_spec(2));
  ASSERT_EQ(joined.status, Status::kOk) << joined.message;
  EXPECT_GT(joined.ring_version, version_retired);
  EXPECT_EQ(gateway_->alive_shard_count(), 3u);

  // The ring is name-deterministic, so the rejoin restores the original
  // ownership map — and ONLY the sessions whose owner changed moved.
  std::size_t owner_changed = 0;
  for (const std::string& id : ids) {
    EXPECT_EQ(gateway_->shard_for(id), owner_with_3[id]) << id;
    if (owner_with_3[id] != owner_with_2[id]) ++owner_changed;
  }
  EXPECT_EQ(joined.sessions_moved, owner_changed);
  EXPECT_EQ(joined.sessions_moved, victim_sessions);

  // A repeated join of the same live endpoint is idempotent: no moves.
  const Gateway::AdminResult again = gateway_->admit_shard(shard_spec(2));
  EXPECT_EQ(again.status, Status::kOk);
  EXPECT_EQ(again.sessions_moved, 0u);
  EXPECT_NE(again.message.find("already admitted"), std::string::npos);

  // Every campaign continues bitwise-identically after the round trip.
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = ids[s];
    EXPECT_EQ(finish(id).next_round, kRounds);
    const Response got = call(make_contracts(id));
    ASSERT_EQ(got.status, Status::kOk) << got.message;
    expect_contracts_equal(got.contracts,
                           reference_contracts(kRounds, 900 + s));
  }
}

TEST_F(GatewayTest, IdleEvictedSessionsFailOverBitwise) {
  constexpr std::uint64_t kRounds = 6;
  constexpr std::size_t kSessions = 6;
  start_fleet(3, /*max_inflight=*/256, /*idle_ttl_ms=*/50);

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "ev-" + std::to_string(s);
    ASSERT_EQ(call(make_open(id, kRounds, 1200 + s)).status, Status::kOk);
    ASSERT_EQ(call(make_advance(id, 3)).status, Status::kOk);
  }

  // Wait for the idle reapers to checkpoint-and-evict every session: the
  // state now lives only in the shards' checkpoint directories.
  std::size_t open = kSessions;
  for (int i = 0; i < 1000 && open > 0; ++i) {
    open = 0;
    for (const std::unique_ptr<Engine>& engine : engines_) {
      open += engine->session_count();
    }
    if (open > 0) ::usleep(10 * 1000);
  }
  ASSERT_EQ(open, 0u) << "idle eviction never drained the fleet";

  // Kill the shard owning ev-0. Its sessions exist only as idle-evicted
  // checkpoints; the handoff must scavenge those files onto the new ring
  // owners and the campaigns must continue bitwise-identically.
  const std::string victim = gateway_->shard_for("ev-0");
  const std::size_t victim_index = victim.back() - '0';
  stop_shard(victim_index);
  ASSERT_EQ(gateway_->retire_shard(victim).status, Status::kOk);

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string id = "ev-" + std::to_string(s);
    EXPECT_NE(gateway_->shard_for(id), victim);
    EXPECT_EQ(finish(id).next_round, kRounds);
    const Response got = call(make_contracts(id));
    ASSERT_EQ(got.status, Status::kOk) << got.message;
    expect_contracts_equal(got.contracts,
                           reference_contracts(kRounds, 1200 + s));
  }
}

TEST_F(GatewayTest, RuntimeAdmissionValidatesLikeStartup) {
  start_fleet(2);

  // Same validation bar as startup shards: in-process callers get the
  // ConfigError...
  ShardSpec no_endpoint;
  no_endpoint.name = "bad";
  EXPECT_THROW(gateway_->admit_shard(no_endpoint), ConfigError);
  ShardSpec no_name;
  no_name.unix_socket = (dir_ / "x.sock").string();
  EXPECT_THROW(gateway_->admit_shard(no_name), ConfigError);

  // ...and the kJoin admin frame reports it as a status instead of
  // crashing the gateway thread.
  Request join;
  join.op = Op::kJoin;
  join.shard.name = "bad";  // no socket, no port
  const Response rejected = call(join);
  EXPECT_EQ(rejected.status, Status::kConfigError);
  EXPECT_EQ(call(Request{}).text, "ccd-gateway/3");  // still serving

  // A name that is live on a different endpoint is a conflict (retire it
  // first), reported as a retryable admin status.
  ShardSpec conflict = shard_spec(0);
  conflict.unix_socket = (dir_ / "elsewhere.sock").string();
  EXPECT_EQ(gateway_->admit_shard(conflict).status, Status::kUnavailable);

  // A valid spec with nothing listening fails its admission probe and
  // never enters the ring.
  ShardSpec ghost;
  ghost.name = "ghost";
  ghost.unix_socket = (dir_ / "ghost.sock").string();
  EXPECT_EQ(gateway_->admit_shard(ghost).status, Status::kUnavailable);
  EXPECT_EQ(gateway_->alive_shard_count(), 2u);
}

TEST_F(GatewayTest, TinyInflightCapStillServesEveryConcurrentDriver) {
  constexpr std::uint64_t kRounds = 6;
  constexpr std::size_t kDrivers = 6;
  start_fleet(2, /*max_inflight=*/1);

  std::vector<std::thread> drivers;
  for (std::size_t s = 0; s < kDrivers; ++s) {
    drivers.emplace_back([&, s] {
      const std::string id = "bp-" + std::to_string(s);
      std::uint64_t request_id = 1'000 * (s + 1);
      const auto admitted = [&](Request request) {
        for (int i = 0; i < 10'000; ++i) {
          request.request_id = ++request_id;
          const Response r = gateway_->handle(request);
          if (r.status != Status::kBackpressure) return r;
          ::usleep(500);  // the lone inflight slot may be mid-design
        }
        Response starved;  // loud failure, not a default-kOk response
        starved.status = Status::kBackpressure;
        starved.message = "starved by backpressure";
        return starved;
      };
      Response r = admitted(make_open(id, kRounds, 800 + s));
      ASSERT_EQ(r.status, Status::kOk) << r.message;
      do {
        r = admitted(make_advance(id, 1));
        ASSERT_EQ(r.status, Status::kOk) << r.message;
      } while (!r.session.finished);
    });
  }
  for (std::thread& t : drivers) t.join();

  for (std::size_t s = 0; s < kDrivers; ++s) {
    const Response got = call(make_contracts("bp-" + std::to_string(s)));
    ASSERT_EQ(got.status, Status::kOk);
    expect_contracts_equal(got.contracts,
                           reference_contracts(kRounds, 800 + s));
  }
}

/// The gateway's own listener, pinned the way ServerTest/AuthTest pin
/// ccdd's: a corrupt frame drops only its connection, the token gate
/// holds on loopback TCP when required, the idle deadline closes only
/// silent clients, stop() closes both listeners and their connections,
/// and a bind failure surfaces as an error. Each runs against a
/// one-shard fleet.
class GatewayListenerTest : public GatewayTest {
 protected:
  /// One shard backend behind a gateway built from `config` (shards,
  /// prober and dial retry filled in here).
  void start_gateway(GatewayConfig config) {
    start_shard_backend(0);
    config.shards = {shard_spec(0)};
    config.health_interval_ms = 0;
    config.connect_retry.sleep = false;
    gateway_ = std::make_unique<Gateway>(std::move(config));
  }

  std::string socket_path() const { return (dir_ / "gateway.sock").string(); }
};

TEST_F(GatewayListenerTest, CorruptFrameDropsOnlyThatConnection) {
  GatewayConfig config;
  config.unix_socket = socket_path();
  start_gateway(std::move(config));

  // A garbage blob instead of a frame: the gateway closes this connection.
  util::Socket raw = util::Socket::connect_unix(socket_path());
  const std::string garbage(64, 'x');
  raw.send_all(garbage.data(), garbage.size());
  char byte = 0;
  EXPECT_FALSE(raw.read_exact(&byte, 1, 5'000));  // clean close, no response

  // Other connections are unaffected.
  Client client = Client::connect_unix(socket_path());
  EXPECT_EQ(client.ping(), "ccd-gateway/3");
}

TEST_F(GatewayListenerTest, RequiredTokenGatesLoopbackTcp) {
  constexpr char kToken[] = "open-sesame";
  GatewayConfig config;
  config.tcp_port = 0;
  config.auth_token = kToken;
  config.require_auth = true;
  start_gateway(std::move(config));
  const int port = gateway_->tcp_port();
  ASSERT_GT(port, 0);

  OpenParams open;
  open.rounds = 3;
  open.workers = 5;
  open.malicious = 2;
  open.seed = 41;
  // The gateway drops a connection it refused, so each refusal gets a
  // fresh client (a reused one would wait out its redial backoff).
  Client anonymous = Client::connect_tcp("127.0.0.1", port);
  EXPECT_THROW(anonymous.ping(), AuthError);
  Client again = Client::connect_tcp("127.0.0.1", port);
  EXPECT_THROW(again.open("gw-auth", open), AuthError);

  ClientOptions options;
  options.auth_token = kToken;
  Client client = Client::connect_tcp("127.0.0.1", port, options);
  EXPECT_EQ(client.ping(), "ccd-gateway/3");
  client.open("gw-auth", open);
  EXPECT_EQ(client.advance("gw-auth", 3).session.next_round, 3u);
}

TEST_F(GatewayListenerTest, IdleTimeoutClosesOnlySilentClients) {
  constexpr int kIdleMs = 100;
  GatewayConfig config;
  config.unix_socket = socket_path();
  config.idle_timeout_ms = kIdleMs;
  start_gateway(std::move(config));

  util::Socket silent = util::Socket::connect_unix(socket_path());
  ClientOptions no_redial;
  no_redial.max_reconnects = 0;  // a dropped connection must surface
  Client active = Client::connect_unix(socket_path(), no_redial);

  // Keep the active client talking for three idle deadlines, never
  // pausing for more than a fifth of one.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(3 * kIdleMs);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_EQ(active.ping(), "ccd-gateway/3");
    ::usleep(kIdleMs / 5 * 1000);
  }

  // The silent client was dropped at its deadline: a clean close.
  char byte = 0;
  EXPECT_FALSE(silent.read_exact(&byte, 1, 5'000));
  EXPECT_EQ(active.ping(), "ccd-gateway/3");
}

TEST_F(GatewayListenerTest, StopClosesBothListenersAndTheirConnections) {
  GatewayConfig config;
  config.unix_socket = socket_path();
  config.tcp_port = 0;
  start_gateway(std::move(config));
  const int port = gateway_->tcp_port();
  ASSERT_GT(port, 0);

  ClientOptions no_redial;
  no_redial.max_reconnects = 0;  // a dropped connection must surface
  Client via_unix = Client::connect_unix(socket_path(), no_redial);
  Client via_tcp = Client::connect_tcp("127.0.0.1", port, no_redial);
  EXPECT_EQ(via_unix.ping(), "ccd-gateway/3");
  EXPECT_EQ(via_tcp.ping(), "ccd-gateway/3");

  // stop() closes the open connections and the listeners with them.
  gateway_->stop();
  EXPECT_THROW(via_unix.ping(), DataError);
  EXPECT_THROW(via_tcp.ping(), DataError);
  EXPECT_FALSE(std::filesystem::exists(socket_path()));
  EXPECT_THROW(util::Socket::connect_unix(socket_path()), DataError);
}

TEST_F(GatewayListenerTest, BindFailureThrowsWithTheProberRunning) {
  const util::Socket taken = util::Socket::listen_tcp(0);
  GatewayConfig config;
  config.shards = {shard_spec(0)};
  config.tcp_port = taken.local_port();
  config.health_interval_ms = 60'000;  // started, never due
  EXPECT_THROW(Gateway{std::move(config)}, DataError);
}

}  // namespace
}  // namespace ccd::serve
