// serve::Engine: the subsystem's core guarantees, in-process (no socket).
//  * A session driven round-by-round over requests produces contracts
//    bitwise-identical to one StackelbergSimulator::run on the same seed.
//  * Admission control: a full bounded queue answers kBackpressure
//    without enqueuing; every admitted request is answered exactly once,
//    including through stop().
//  * Deadlines arm at admission: queue wait counts, expiry mid-advance
//    retains completed rounds, and a later resume stays bitwise-exact.
//  * Kill + resume: an engine restarted on the same checkpoint directory
//    restores every open session and continues bitwise-identically.
//  * `ccd.serve.*` counters reconcile exactly with client-observed
//    request counts.
#include "serve/engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/stackelberg.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace ccd::serve {
namespace {

Request make_open(const std::string& session, std::uint64_t rounds,
                  std::uint64_t seed, std::uint64_t workers = 5,
                  std::uint64_t malicious = 2) {
  Request request;
  request.op = Op::kOpen;
  request.session = session;
  request.open.mode = SessionMode::kSimulation;
  request.open.rounds = rounds;
  request.open.workers = workers;
  request.open.malicious = malicious;
  request.open.seed = seed;
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

/// Bitwise contract equality: EXPECT_EQ on doubles compares exact values,
/// which for identical bit patterns is what the reproduction contract
/// promises (no NaNs in posted contracts).
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

std::uint64_t counter_value(const std::string& name) {
  namespace metrics = util::metrics;
  for (const metrics::MetricSnapshot& m : metrics::registry().snapshot()) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ccd_engine_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineConfig config(std::size_t threads = 2) {
    EngineConfig c;
    c.worker_threads = threads;
    return c;
  }

  std::filesystem::path dir_;
};

// Each EngineConfig check is a ConfigError (ccdd exits 2), thrown before
// any executor thread starts.
TEST(EngineConfigTest, ChecksThrowConfigError) {
  EXPECT_NO_THROW(EngineConfig{}.validate());
  EngineConfig c;
  c.worker_threads = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  EXPECT_THROW(Engine{c}, ConfigError);
  c = EngineConfig{};
  c.queue_capacity = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = EngineConfig{};
  c.max_sessions = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = EngineConfig{};
  c.checkpoint_every = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = EngineConfig{};
  c.idle_ttl_ms = 5;
  EXPECT_THROW(c.validate(), ConfigError);
  c.checkpoint_dir = "ckpt";
  EXPECT_NO_THROW(c.validate());
}

TEST_F(EngineTest, SessionDrivenPerRoundMatchesSimulatorRunBitwise) {
  constexpr std::uint64_t kRounds = 12;
  constexpr std::uint64_t kSeed = 3;
  Engine engine(config(4));
  ASSERT_EQ(engine.call(make_open("s", kRounds, kSeed)).status, Status::kOk);

  // Drive one round per request — the maximally fragmented schedule.
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    const Response r = engine.call(make_advance("s", 1));
    ASSERT_EQ(r.status, Status::kOk) << r.message;
    EXPECT_EQ(r.session.next_round, t + 1);
  }
  const Response done = engine.call(make_advance("s", 1));
  EXPECT_TRUE(done.session.finished);

  const Response got = engine.call(make_contracts("s"));
  ASSERT_EQ(got.status, Status::kOk);
  expect_contracts_equal(got.contracts, reference_contracts(kRounds, kSeed));

  // And the cumulative utility is the simulator's, exactly.
  core::SimConfig ref_config;
  ref_config.rounds = kRounds;
  ref_config.seed = kSeed;
  core::StackelbergSimulator ref(core::preset_fleet(5, 2), ref_config);
  EXPECT_EQ(got.session.cumulative_requester_utility,
            ref.run().cumulative_requester_utility);
}

TEST_F(EngineTest, FullQueueAnswersBackpressureWithoutEnqueuing) {
  EngineConfig c;
  c.worker_threads = 1;
  c.queue_capacity = 1;
  Engine engine(c);

  // Block the lone executor: the first ping's done-callback waits until
  // released, so everything behind it stays queued.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  Request ping;
  ping.op = Op::kPing;
  ASSERT_TRUE(engine.submit(ping, [&](Response) {
    started.set_value();
    release_future.wait();
  }));
  started.get_future().wait();

  // Queue is empty again (the blocker is *executing*): one more fits...
  std::promise<Response> queued;
  ASSERT_TRUE(engine.submit(
      ping, [&](Response r) { queued.set_value(std::move(r)); }));

  // ...and the next ones are rejected synchronously with kBackpressure.
  std::vector<Response> rejected;
  for (int i = 0; i < 3; ++i) {
    const bool admitted = engine.submit(
        ping, [&](Response r) { rejected.push_back(std::move(r)); });
    EXPECT_FALSE(admitted);
  }
  ASSERT_EQ(rejected.size(), 3u);
  for (const Response& r : rejected) {
    EXPECT_EQ(r.status, Status::kBackpressure);
  }

  release.set_value();
  EXPECT_EQ(queued.get_future().get().status, Status::kOk);
}

TEST_F(EngineTest, StopDrainsEveryAcknowledgedRequest) {
  EngineConfig c;
  c.worker_threads = 1;
  c.queue_capacity = 64;
  auto engine = std::make_unique<Engine>(c);

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  Request ping;
  ping.op = Op::kPing;
  ASSERT_TRUE(engine->submit(ping, [&](Response) {
    started.set_value();
    release_future.wait();
  }));
  started.get_future().wait();

  // Queue a burst behind the blocker, then stop() while they are pending.
  std::atomic<int> answered{0};
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (engine->submit(ping, [&](Response r) {
          EXPECT_EQ(r.status, Status::kOk);
          answered.fetch_add(1);
        })) {
      ++admitted;
    }
  }
  ASSERT_EQ(admitted, 10);

  std::thread stopper([&] { engine->stop(); });
  release.set_value();
  stopper.join();
  // stop() returned only after the queue drained: all 10 were answered.
  EXPECT_EQ(answered.load(), 10);

  // Submissions after stop() are rejected explicitly, not dropped.
  std::promise<Response> late;
  EXPECT_FALSE(engine->submit(
      ping, [&](Response r) { late.set_value(std::move(r)); }));
  EXPECT_EQ(late.get_future().get().status, Status::kShuttingDown);
}

TEST_F(EngineTest, DeadlineArmsAtAdmissionAndExpiredWorkResumesBitwise) {
  constexpr std::uint64_t kRounds = 10;
  constexpr std::uint64_t kSeed = 11;
  EngineConfig c;
  c.worker_threads = 1;
  c.queue_capacity = 4;
  Engine engine(c);
  ASSERT_EQ(engine.call(make_open("s", kRounds, kSeed)).status, Status::kOk);

  // Deadlines are measured from admission: park an advance behind a
  // blocked executor until its 1ms budget has burned entirely in the
  // queue. It must be answered kDeadline without touching the session.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  Request ping;
  ping.op = Op::kPing;
  ASSERT_TRUE(engine.submit(ping, [&](Response) {
    started.set_value();
    release_future.wait();
  }));
  started.get_future().wait();

  Request stale = make_advance("s", kRounds);
  stale.deadline_ms = 1;
  std::promise<Response> answered;
  ASSERT_TRUE(engine.submit(
      stale, [&](Response r) { answered.set_value(std::move(r)); }));
  ::usleep(10 * 1000);  // let the queued deadline expire
  release.set_value();

  const Response cut = answered.get_future().get();
  EXPECT_EQ(cut.status, Status::kDeadline);
  EXPECT_NE(cut.message.find("queued"), std::string::npos);
  EXPECT_EQ(engine.call(make_contracts("s")).session.next_round, 0u);

  // The session is untouched; finishing without a deadline lands on the
  // uninterrupted trajectory bitwise.
  const Response rest = engine.call(make_advance("s", kRounds));
  ASSERT_EQ(rest.status, Status::kOk) << rest.message;
  EXPECT_TRUE(rest.session.finished);
  expect_contracts_equal(engine.call(make_contracts("s")).contracts,
                         reference_contracts(kRounds, kSeed));
}

TEST_F(EngineTest, KillAndResumeReproducesUninterruptedContractsBitwise) {
  constexpr std::uint64_t kRounds = 14;
  constexpr std::uint64_t kSeed = 5;

  EngineConfig durable = config();
  durable.checkpoint_dir = dir_.string();

  // Phase 1: open two sessions, advance partway, then drop the engine
  // without a clean close (its destructor checkpoints; the per-round
  // checkpoints would cover a SIGKILL — exercised end-to-end in CI).
  {
    Engine engine(durable);
    ASSERT_EQ(engine.call(make_open("a", kRounds, kSeed)).status, Status::kOk);
    ASSERT_EQ(engine.call(make_open("b", kRounds, kSeed + 1)).status,
              Status::kOk);
    ASSERT_EQ(engine.call(make_advance("a", 9)).status, Status::kOk);
    ASSERT_EQ(engine.call(make_advance("b", 4)).status, Status::kOk);
  }

  // Phase 2: a fresh engine on the same directory restores both sessions
  // and finishes them; results must equal the uninterrupted runs bitwise.
  Engine engine(durable);
  ASSERT_EQ(engine.resume_sessions().restored, 2u);
  EXPECT_EQ(engine.session_count(), 2u);
  ASSERT_EQ(engine.call(make_advance("a", kRounds)).status, Status::kOk);
  ASSERT_EQ(engine.call(make_advance("b", kRounds)).status, Status::kOk);
  expect_contracts_equal(engine.call(make_contracts("a")).contracts,
                         reference_contracts(kRounds, kSeed));
  expect_contracts_equal(engine.call(make_contracts("b")).contracts,
                         reference_contracts(kRounds, kSeed + 1));

  // Closing removes the checkpoint; the next resume finds nothing.
  Request close_a;
  close_a.op = Op::kClose;
  close_a.session = "a";
  ASSERT_EQ(engine.call(close_a).status, Status::kOk);
  Engine fresh(durable);
  EXPECT_EQ(fresh.resume_sessions().restored, 1u);
}

TEST_F(EngineTest, ResumeSkipsCorruptCheckpointsWithoutBlockingTheRest) {
  constexpr std::uint64_t kRounds = 12;
  constexpr std::uint64_t kSeed = 31;
  EngineConfig durable = config();
  durable.checkpoint_dir = dir_.string();

  {
    Engine engine(durable);
    ASSERT_EQ(engine.call(make_open("good", kRounds, kSeed)).status,
              Status::kOk);
    ASSERT_EQ(engine.call(make_open("bad", kRounds, kSeed + 1)).status,
              Status::kOk);
    ASSERT_EQ(engine.call(make_advance("good", 5)).status, Status::kOk);
    ASSERT_EQ(engine.call(make_advance("bad", 5)).status, Status::kOk);
  }

  // Truncate one checkpoint mid-frame: the wire-level checksum cannot
  // hold, so restore must reject it as corrupt.
  const std::string bad_path =
      (dir_ / ("bad" + std::string(Session::checkpoint_suffix(
                   SessionMode::kSimulation))))
          .string();
  std::string bytes;
  {
    std::ifstream in(bad_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  const std::uint64_t skipped0 = counter_value("ccd.serve.resume_skipped");
  Engine engine(durable);
  const ResumeReport report = engine.resume_sessions();
  EXPECT_EQ(report.restored, 1u);
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_EQ(report.skipped[0].id, "bad");
  EXPECT_EQ(report.skipped[0].path, bad_path);
  EXPECT_FALSE(report.skipped[0].error.empty());
  EXPECT_EQ(counter_value("ccd.serve.resume_skipped") - skipped0, 1u);

  // The survivor is untouched by its neighbor's corruption.
  ASSERT_EQ(engine.call(make_advance("good", kRounds)).status, Status::kOk);
  expect_contracts_equal(engine.call(make_contracts("good")).contracts,
                         reference_contracts(kRounds, kSeed));
  // The condemned session is not silently resurrected: its file still
  // exists, so "no open session" would lie — the corruption surfaces.
  EXPECT_EQ(engine.call(make_advance("bad", 1)).status, Status::kDataError);
}

TEST_F(EngineTest, IdleSessionsEvictToDiskAndResurrectBitwise) {
  constexpr std::uint64_t kRounds = 10;
  constexpr std::uint64_t kSeed = 17;
  EngineConfig c = config();
  c.checkpoint_dir = dir_.string();
  c.idle_ttl_ms = 25;
  const std::uint64_t evicted0 = counter_value("ccd.serve.sessions_evicted");
  const std::uint64_t reloaded0 = counter_value("ccd.serve.sessions_reloaded");
  Engine engine(c);
  ASSERT_EQ(engine.call(make_open("idle", kRounds, kSeed)).status,
            Status::kOk);
  ASSERT_EQ(engine.call(make_advance("idle", 4)).status, Status::kOk);

  // The reaper checkpoints and frees the slot once the TTL lapses.
  for (int i = 0; i < 500 && engine.session_count() > 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(engine.session_count(), 0u);
  EXPECT_GE(counter_value("ccd.serve.sessions_evicted") - evicted0, 1u);

  // Eviction freed the slot, not the campaign: the next op transparently
  // reloads and the trajectory stays bitwise-exact.
  const Response rest = engine.call(make_advance("idle", kRounds));
  ASSERT_EQ(rest.status, Status::kOk) << rest.message;
  EXPECT_TRUE(rest.session.finished);
  expect_contracts_equal(engine.call(make_contracts("idle")).contracts,
                         reference_contracts(kRounds, kSeed));
  EXPECT_GE(counter_value("ccd.serve.sessions_reloaded") - reloaded0, 1u);

  // Evicting without durability is refused up front, not at eviction time.
  EngineConfig undurable = config();
  undurable.idle_ttl_ms = 10;
  EXPECT_THROW(Engine bad(undurable), Error);
}

TEST_F(EngineTest, IngestSessionRefitsAndResumesBitwise) {
  constexpr std::uint64_t kWorkers = 3;
  const auto observation = [](std::uint64_t round, std::uint64_t worker) {
    IngestObservation obs;
    obs.effort = 1.0 + 0.25 * static_cast<double>((round + worker) % 5);
    obs.feedback = 2.0 + 7.5 * obs.effort - 0.9 * obs.effort * obs.effort;
    obs.accuracy_sample = worker == 0 ? 1.6 : 0.3;
    return obs;
  };
  const auto round_of = [&](std::uint64_t round) {
    std::vector<IngestObservation> obs;
    for (std::uint64_t w = 0; w < kWorkers; ++w) {
      obs.push_back(observation(round, w));
    }
    return obs;
  };
  const auto ingest_request = [&](std::uint64_t round) {
    Request request;
    request.op = Op::kIngest;
    request.session = "obs";
    request.observations = round_of(round);
    return request;
  };
  Request open;
  open.op = Op::kOpen;
  open.session = "obs";
  open.open.mode = SessionMode::kIngest;
  open.open.rounds = 0;  // unbounded
  open.open.workers = kWorkers;
  open.open.refit_every = 4;

  EngineConfig durable = config();
  durable.checkpoint_dir = dir_.string();

  // Uninterrupted reference: 8 rounds in one engine.
  std::vector<contract::Contract> reference;
  {
    Engine engine(config());
    ASSERT_EQ(engine.call(open).status, Status::kOk);
    for (std::uint64_t t = 0; t < 8; ++t) {
      const Response r = engine.call(ingest_request(t));
      ASSERT_EQ(r.status, Status::kOk) << r.message;
      // Redesign fires exactly on refit boundaries.
      EXPECT_EQ(r.redesigned, (t + 1) % 4 == 0);
    }
    reference = engine.call(make_contracts("obs")).contracts;
    for (const contract::Contract& c : reference) {
      EXPECT_FALSE(c.is_zero());
    }
  }

  // Interrupted: restart the engine after round 5, feed the rest.
  {
    Engine engine(durable);
    ASSERT_EQ(engine.call(open).status, Status::kOk);
    for (std::uint64_t t = 0; t < 5; ++t) {
      ASSERT_EQ(engine.call(ingest_request(t)).status, Status::kOk);
    }
  }
  Engine engine(durable);
  ASSERT_EQ(engine.resume_sessions().restored, 1u);
  for (std::uint64_t t = 5; t < 8; ++t) {
    ASSERT_EQ(engine.call(ingest_request(t)).status, Status::kOk);
  }
  expect_contracts_equal(engine.call(make_contracts("obs")).contracts,
                         reference);

  // Wrong observation arity is a config error, not a crash.
  Request bad;
  bad.op = Op::kIngest;
  bad.session = "obs";
  bad.observations = {IngestObservation{}};
  EXPECT_EQ(engine.call(bad).status, Status::kConfigError);
  // advance on an ingest session is refused.
  EXPECT_EQ(engine.call(make_advance("obs", 1)).status, Status::kConfigError);
}

// Every ingest refit designs on freshly fitted curves, so its design
// tables are never looked up again: none may outlive the request that
// built them, or a long-lived daemon grows with every refit. Each cache
// counts a table once in ccd.cache.misses when it builds it and once in
// ccd.cache.evictions when it drops it, so their difference is the number
// of tables alive.
TEST_F(EngineTest, IngestRefitsRetainNoDesignTables) {
  constexpr std::uint64_t kWorkers = 4;
  const auto ingest_request = [&](std::uint64_t round) {
    Request request;
    request.op = Op::kIngest;
    request.session = "grow";
    for (std::uint64_t w = 0; w < kWorkers; ++w) {
      IngestObservation obs;
      obs.effort = 1.0 + 0.25 * static_cast<double>((round * 3 + w) % 7);
      obs.feedback = 2.0 + 7.5 * obs.effort - 0.9 * obs.effort * obs.effort;
      obs.accuracy_sample = w == 0 ? 1.6 : 0.3;
      request.observations.push_back(obs);
    }
    return request;
  };
  Request open;
  open.op = Op::kOpen;
  open.session = "grow";
  open.open.mode = SessionMode::kIngest;
  open.open.rounds = 0;
  open.open.workers = kWorkers;
  open.open.refit_every = 2;

  const auto tables_alive = [] {
    return counter_value("ccd.cache.misses") -
           counter_value("ccd.cache.evictions");
  };
  Engine engine(config());
  ASSERT_EQ(engine.call(open).status, Status::kOk);
  const std::uint64_t alive0 = tables_alive();
  std::size_t refits = 0;
  for (std::uint64_t t = 0; t < 10; ++t) {
    const Response r = engine.call(ingest_request(t));
    ASSERT_EQ(r.status, Status::kOk) << r.message;
    if (r.redesigned) ++refits;
    EXPECT_EQ(tables_alive(), alive0) << "after round " << t;
  }
  EXPECT_EQ(refits, 5u);
}

TEST_F(EngineTest, PolicyBackendSessionsMatchTheSimulatorAndResumeBitwise) {
  // A session opened with a learner backend must (a) reproduce one
  // StackelbergSimulator::run of the same config bitwise and (b) survive
  // an engine restart mid-campaign: the learner's arm statistics ride the
  // SCKP v3 checkpoint.
  constexpr std::uint64_t kRounds = 16;
  constexpr std::uint64_t kSeed = 23;
  for (const policy::Kind kind :
       {policy::Kind::kZoomingBandit, policy::Kind::kPostedPrice}) {
    SCOPED_TRACE(policy::to_string(kind));
    const std::string id = std::string("pol_") + policy::to_string(kind);
    Request open = make_open(id, kRounds, kSeed);
    open.open.policy = kind;

    core::SimConfig ref_config;
    ref_config.rounds = kRounds;
    ref_config.seed = kSeed;
    ref_config.policy.kind = kind;
    core::StackelbergSimulator ref(core::preset_fleet(5, 2), ref_config);
    const double ref_utility = ref.run().cumulative_requester_utility;

    const std::filesystem::path backend_dir = dir_ / id;
    std::filesystem::create_directories(backend_dir);
    EngineConfig durable = config();
    durable.checkpoint_dir = backend_dir.string();
    {
      Engine engine(durable);
      ASSERT_EQ(engine.call(open).status, Status::kOk);
      ASSERT_EQ(engine.call(make_advance(id, 7)).status, Status::kOk);
    }
    Engine engine(durable);
    ASSERT_EQ(engine.resume_sessions().restored, 1u);
    const Response done = engine.call(make_advance(id, kRounds));
    ASSERT_EQ(done.status, Status::kOk) << done.message;
    EXPECT_TRUE(done.session.finished);
    EXPECT_EQ(done.session.cumulative_requester_utility, ref_utility);
    expect_contracts_equal(engine.call(make_contracts(id)).contracts,
                           ref.contracts());
  }
}

TEST_F(EngineTest, IngestLearnerSessionResumesBitwise) {
  // Ingest sessions with a learner backend post fresh arms every round and
  // carry their learner state + RNG in the ISES v2 checkpoint; a restart
  // mid-campaign (off the refit cadence) must continue bitwise, for each
  // learner.
  constexpr std::uint64_t kWorkers = 3;
  for (const policy::Kind kind :
       {policy::Kind::kZoomingBandit, policy::Kind::kPostedPrice}) {
    SCOPED_TRACE(policy::to_string(kind));
    const std::string id = std::string("lobs_") + policy::to_string(kind);
    const auto ingest_request = [&](std::uint64_t round) {
      Request request;
      request.op = Op::kIngest;
      request.session = id;
      for (std::uint64_t w = 0; w < kWorkers; ++w) {
        IngestObservation obs;
        obs.effort = 1.0 + 0.25 * static_cast<double>((round + w) % 5);
        obs.feedback = 2.0 + 7.5 * obs.effort - 0.9 * obs.effort * obs.effort;
        obs.accuracy_sample = w == 0 ? 1.6 : 0.3;
        request.observations.push_back(obs);
      }
      return request;
    };
    Request open;
    open.op = Op::kOpen;
    open.session = id;
    open.open.mode = SessionMode::kIngest;
    open.open.rounds = 0;
    open.open.workers = kWorkers;
    open.open.refit_every = 4;
    open.open.policy = kind;

    std::vector<contract::Contract> reference;
    {
      Engine engine(config());
      ASSERT_EQ(engine.call(open).status, Status::kOk);
      for (std::uint64_t t = 0; t < 10; ++t) {
        const Response r = engine.call(ingest_request(t));
        ASSERT_EQ(r.status, Status::kOk) << r.message;
        // Learners post every round, not just on refit boundaries.
        EXPECT_TRUE(r.redesigned);
      }
      reference = engine.call(make_contracts(id)).contracts;
    }

    const std::filesystem::path backend_dir = dir_ / id;
    std::filesystem::create_directories(backend_dir);
    EngineConfig durable = config();
    durable.checkpoint_dir = backend_dir.string();
    {
      Engine engine(durable);
      ASSERT_EQ(engine.call(open).status, Status::kOk);
      for (std::uint64_t t = 0; t < 6; ++t) {
        ASSERT_EQ(engine.call(ingest_request(t)).status, Status::kOk);
      }
    }
    Engine engine(durable);
    ASSERT_EQ(engine.resume_sessions().restored, 1u);
    for (std::uint64_t t = 6; t < 10; ++t) {
      ASSERT_EQ(engine.call(ingest_request(t)).status, Status::kOk);
    }
    expect_contracts_equal(engine.call(make_contracts(id)).contracts,
                           reference);
  }
}

TEST_F(EngineTest, OpenValidationAndIdempotence) {
  Engine engine(config());
  EXPECT_EQ(engine.call(make_open("bad id!", 4, 1)).status,
            Status::kConfigError);
  EXPECT_EQ(engine.call(make_advance("ghost", 1)).status,
            Status::kConfigError);

  // At most kMaxSessionWorkers, in either mode.
  Request big = make_open("big", 4, 1, kMaxSessionWorkers + 1);
  EXPECT_EQ(engine.call(big).status, Status::kConfigError);
  big.open.mode = SessionMode::kIngest;
  EXPECT_EQ(engine.call(big).status, Status::kConfigError);

  // Requester parameters core::Requester::validate refuses (mu, ema_alpha)
  // are config errors in either mode, like any other bad open.
  for (const SessionMode mode :
       {SessionMode::kSimulation, SessionMode::kIngest}) {
    Request bad_mu = make_open("bad_mu", 4, 1);
    bad_mu.open.mode = mode;
    bad_mu.open.mu = 0.0;
    EXPECT_EQ(engine.call(bad_mu).status, Status::kConfigError);
    for (const double alpha : {0.0, 1.5}) {
      Request bad_alpha = make_open("bad_alpha", 4, 1);
      bad_alpha.open.mode = mode;
      bad_alpha.open.ema_alpha = alpha;
      EXPECT_EQ(engine.call(bad_alpha).status, Status::kConfigError)
          << "ema_alpha " << alpha;
    }
  }

  ASSERT_EQ(engine.call(make_open("dup", 4, 1)).status, Status::kOk);
  EXPECT_EQ(engine.call(make_open("dup", 4, 1)).status, Status::kConfigError);
  Request attach = make_open("dup", 4, 1);
  attach.open.allow_existing = true;
  EXPECT_EQ(engine.call(attach).status, Status::kOk);

  EngineConfig tiny = config();
  tiny.max_sessions = 1;
  Engine capped(tiny);
  ASSERT_EQ(capped.call(make_open("one", 4, 1)).status, Status::kOk);
  const Response full = capped.call(make_open("two", 4, 1));
  EXPECT_EQ(full.status, Status::kConfigError);
  EXPECT_NE(full.message.find("session limit"), std::string::npos);
}

TEST_F(EngineTest, ServeCountersReconcileWithClientObservedCounts) {
  const std::uint64_t submitted0 = counter_value("ccd.serve.submitted");
  const std::uint64_t responses0 = counter_value("ccd.serve.responses");
  const std::uint64_t backpressure0 = counter_value("ccd.serve.backpressure");
  const std::uint64_t rounds0 = counter_value("ccd.serve.rounds");
  const std::uint64_t opened0 = counter_value("ccd.serve.sessions_opened");
  const std::uint64_t closed0 = counter_value("ccd.serve.sessions_closed");

  std::uint64_t client_requests = 0;
  std::uint64_t client_responses = 0;
  std::uint64_t client_backpressure = 0;
  std::uint64_t client_rounds = 0;

  {
    EngineConfig c;
    c.worker_threads = 1;
    c.queue_capacity = 1;
    Engine engine(c);
    const auto tracked = [&](Request request) {
      ++client_requests;
      const Response r = engine.call(std::move(request));
      ++client_responses;
      if (r.status == Status::kBackpressure) ++client_backpressure;
      return r;
    };

    ASSERT_EQ(tracked(make_open("m", 6, 2)).status, Status::kOk);
    for (int i = 0; i < 3; ++i) {
      const Response r = tracked(make_advance("m", 2));
      ASSERT_EQ(r.status, Status::kOk);
      client_rounds += 2;
    }
    Request close;
    close.op = Op::kClose;
    close.session = "m";
    ASSERT_EQ(tracked(close).status, Status::kOk);

    // A deterministic backpressure episode, counted on both sides.
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> release_future = release.get_future().share();
    Request ping;
    ping.op = Op::kPing;
    ++client_requests;
    ASSERT_TRUE(engine.submit(ping, [&](Response) {
      started.set_value();
      release_future.wait();
    }));
    started.get_future().wait();
    ++client_requests;
    ASSERT_TRUE(engine.submit(ping, [&](Response) {}));  // fills the queue
    tracked(ping);  // rejected: queue full
    release.set_value();
    engine.stop();
    client_responses += 2;  // the blocker and the queued ping answered
  }

  EXPECT_EQ(counter_value("ccd.serve.submitted") - submitted0,
            client_requests);
  EXPECT_EQ(counter_value("ccd.serve.responses") - responses0,
            client_responses);
  EXPECT_EQ(counter_value("ccd.serve.backpressure") - backpressure0,
            client_backpressure);
  EXPECT_EQ(client_backpressure, 1u);
  EXPECT_EQ(counter_value("ccd.serve.rounds") - rounds0, client_rounds);
  EXPECT_EQ(counter_value("ccd.serve.sessions_opened") - opened0, 1u);
  EXPECT_EQ(counter_value("ccd.serve.sessions_closed") - closed0, 1u);
}

}  // namespace
}  // namespace ccd::serve
