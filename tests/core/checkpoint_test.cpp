#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/stackelberg.hpp"
#include "util/atomic_file.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace ccd::core {
namespace {

SimWorkerSpec worker(bool malicious, const std::string& name) {
  SimWorkerSpec w;
  w.name = name;
  w.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  w.omega = malicious ? 0.6 : 0.0;
  w.accuracy_distance = malicious ? 1.7 : 0.3;
  return w;
}

std::vector<SimWorkerSpec> fleet() {
  return {worker(false, "h0"), worker(false, "h1"), worker(true, "m0")};
}

SimConfig base_config(std::size_t rounds) {
  SimConfig c;
  c.rounds = rounds;
  c.feedback_noise = 0.2;
  c.accuracy_noise = 0.05;
  c.seed = 7;
  return c;
}

/// Bitwise equality of two simulation results — EXPECT_EQ on doubles is
/// exact, which is the resume contract.
void expect_bitwise_equal(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t t = 0; t < a.rounds.size(); ++t) {
    EXPECT_EQ(a.rounds[t].round, b.rounds[t].round);
    EXPECT_EQ(a.rounds[t].requester_utility, b.rounds[t].requester_utility);
    EXPECT_EQ(a.rounds[t].total_compensation, b.rounds[t].total_compensation);
    EXPECT_EQ(a.rounds[t].weighted_feedback, b.rounds[t].weighted_feedback);
  }
  ASSERT_EQ(a.worker_history.size(), b.worker_history.size());
  for (std::size_t w = 0; w < a.worker_history.size(); ++w) {
    ASSERT_EQ(a.worker_history[w].size(), b.worker_history[w].size());
    for (std::size_t t = 0; t < a.worker_history[w].size(); ++t) {
      const WorkerRound& x = a.worker_history[w][t];
      const WorkerRound& y = b.worker_history[w][t];
      EXPECT_EQ(x.effort, y.effort);
      EXPECT_EQ(x.feedback, y.feedback);
      EXPECT_EQ(x.compensation, y.compensation);
      EXPECT_EQ(x.worker_utility, y.worker_utility);
      EXPECT_EQ(x.estimated_malicious, y.estimated_malicious);
      EXPECT_EQ(x.weight, y.weight);
    }
  }
  EXPECT_EQ(a.cumulative_requester_utility, b.cumulative_requester_utility);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ccd_checkpoint_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "sim.ckpt").string();
  }
  void TearDown() override {
    util::FaultInjector::instance().disable();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(CheckpointTest, SavedFileRoundTripsThroughLoad) {
  SimConfig config = base_config(8);
  config.checkpoint_every = 4;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();

  const SimCheckpoint loaded = load_checkpoint(path_);
  EXPECT_EQ(loaded.next_round, 8u);
  EXPECT_EQ(loaded.config.rounds, 8u);
  EXPECT_EQ(loaded.config.seed, 7u);
  ASSERT_EQ(loaded.workers.size(), 3u);
  EXPECT_EQ(loaded.workers[2].name, "m0");
  ASSERT_EQ(loaded.est_accuracy.size(), 3u);
  ASSERT_EQ(loaded.contracts.size(), 3u);
  EXPECT_EQ(loaded.history.rounds.size(), 8u);
}

// The headline chaos test: run K rounds with periodic checkpoints ("the
// process is killed" after the write), resume from disk with a larger
// round budget, and require the stitched result to be bitwise-identical
// to an uninterrupted run — at one thread and at four.
TEST_F(CheckpointTest, KillAndResumeIsBitwiseIdentical) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));

    SimConfig full = base_config(20);
    full.threads = threads;
    const SimResult uninterrupted =
        StackelbergSimulator(fleet(), full).run();

    // Phase 1: die after 8 rounds (checkpoint_every == rounds, so the last
    // thing the "killed" process did was persist its state).
    SimConfig partial = base_config(8);
    partial.threads = threads;
    partial.checkpoint_every = 8;
    partial.checkpoint_path = path_;
    StackelbergSimulator(fleet(), partial).run();

    // Phase 2: resume from disk and extend the budget to the full 20.
    SimCheckpoint checkpoint = load_checkpoint(path_);
    EXPECT_EQ(checkpoint.next_round, 8u);
    checkpoint.config.rounds = 20;
    const SimResult resumed = StackelbergSimulator(checkpoint).run();

    EXPECT_FALSE(resumed.cancelled);
    expect_bitwise_equal(uninterrupted, resumed);
  }
}

// Same chaos drill for the learning backends: their arm statistics are
// dynamic state (SCKP v3 policy_state), so a kill + resume must continue
// the exploration schedule bitwise — at one thread and at four.
TEST_F(CheckpointTest, LearnerBackendKillAndResumeIsBitwiseIdentical) {
  for (const policy::Kind kind :
       {policy::Kind::kZoomingBandit, policy::Kind::kPostedPrice}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(policy::to_string(kind)) +
                   " threads=" + std::to_string(threads));

      SimConfig full = base_config(20);
      full.policy.kind = kind;
      full.threads = threads;
      const SimResult uninterrupted =
          StackelbergSimulator(fleet(), full).run();

      SimConfig partial = base_config(8);
      partial.policy.kind = kind;
      partial.threads = threads;
      partial.checkpoint_every = 8;
      partial.checkpoint_path = path_;
      StackelbergSimulator(fleet(), partial).run();

      SimCheckpoint checkpoint = load_checkpoint(path_);
      EXPECT_EQ(checkpoint.next_round, 8u);
      EXPECT_EQ(checkpoint.config.policy.kind, kind);
      EXPECT_FALSE(checkpoint.policy_state.empty());
      checkpoint.config.rounds = 20;
      const SimResult resumed = StackelbergSimulator(checkpoint).run();

      EXPECT_FALSE(resumed.cancelled);
      expect_bitwise_equal(uninterrupted, resumed);
    }
  }
}

TEST_F(CheckpointTest, PolicyStateSurvivesEncodeDecode) {
  SimConfig config = base_config(10);
  config.policy.kind = policy::Kind::kZoomingBandit;
  config.policy.payment_cap = 9.5;
  config.checkpoint_every = 10;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();

  const SimCheckpoint a = load_checkpoint(path_);
  EXPECT_EQ(a.config.policy.kind, policy::Kind::kZoomingBandit);
  EXPECT_EQ(a.config.policy.payment_cap, 9.5);
  ASSERT_FALSE(a.policy_state.empty());

  const SimCheckpoint b = decode_checkpoint(encode_checkpoint(a));
  EXPECT_EQ(b.config.policy.kind, a.config.policy.kind);
  EXPECT_EQ(b.config.policy.payment_cap, a.config.policy.payment_cap);
  EXPECT_EQ(b.policy_state, a.policy_state);
}

TEST_F(CheckpointTest, V2PayloadRestoresWithDefaultBipBackend) {
  // A pre-policy (v2) checkpoint must still load: default BiP backend,
  // empty learner state, everything else intact.
  SimConfig config = base_config(6);
  config.checkpoint_every = 6;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();
  const SimCheckpoint a = load_checkpoint(path_);

  const std::string v2 = encode_checkpoint(a, 2);
  const SimCheckpoint b = decode_checkpoint(v2, 2);
  EXPECT_EQ(b.config.policy.kind, policy::Kind::kBip);
  EXPECT_TRUE(b.policy_state.empty());
  EXPECT_EQ(b.next_round, a.next_round);
  EXPECT_EQ(b.rng.words, a.rng.words);
  expect_bitwise_equal(a.history, b.history);

  // And resuming from it runs to completion like the v3 original.
  SimCheckpoint resumed_from_v2 = b;
  resumed_from_v2.config.rounds = 12;
  SimCheckpoint resumed_from_v3 = a;
  resumed_from_v3.config.rounds = 12;
  expect_bitwise_equal(StackelbergSimulator(resumed_from_v2).run(),
                       StackelbergSimulator(resumed_from_v3).run());
}

TEST_F(CheckpointTest, V2EncodingRefusesToDropLearnerState) {
  // Downgrading a learner checkpoint to v2 would silently lose the arm
  // statistics; the encoder must refuse.
  SimConfig config = base_config(4);
  config.policy.kind = policy::Kind::kPostedPrice;
  config.checkpoint_every = 4;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();
  const SimCheckpoint learner = load_checkpoint(path_);
  EXPECT_THROW(encode_checkpoint(learner, 2), Error);
}

TEST_F(CheckpointTest, ResumeAcrossThreadCountsIsBitwiseIdentical) {
  const SimResult uninterrupted =
      StackelbergSimulator(fleet(), base_config(16)).run();

  SimConfig partial = base_config(6);
  partial.threads = 1;
  partial.checkpoint_every = 6;
  partial.checkpoint_path = path_;
  StackelbergSimulator(fleet(), partial).run();

  SimCheckpoint checkpoint = load_checkpoint(path_);
  checkpoint.config.rounds = 16;
  checkpoint.config.threads = 4;  // resume on a different pool size
  const SimResult resumed = StackelbergSimulator(checkpoint).run();
  expect_bitwise_equal(uninterrupted, resumed);
}

TEST_F(CheckpointTest, CancelledRunWritesResumableCheckpoint) {
  SimConfig config = base_config(12);
  config.checkpoint_path = path_;  // final checkpoint on cancellation only

  util::CancellationToken token;
  token.set_deadline(util::Deadline::after(0.0));  // expires immediately
  const SimResult cancelled =
      StackelbergSimulator(fleet(), config).run(&token);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.cancel_reason, util::CancelReason::kDeadline);
  EXPECT_TRUE(cancelled.rounds.empty());

  SimCheckpoint checkpoint = load_checkpoint(path_);
  const SimResult resumed = StackelbergSimulator(checkpoint).run();
  EXPECT_FALSE(resumed.cancelled);
  expect_bitwise_equal(StackelbergSimulator(fleet(), base_config(12)).run(),
                       resumed);
}

TEST_F(CheckpointTest, EncodeDecodeRoundTrips) {
  SimConfig config = base_config(5);
  config.checkpoint_every = 5;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();
  const SimCheckpoint a = load_checkpoint(path_);

  const SimCheckpoint b = decode_checkpoint(encode_checkpoint(a));
  EXPECT_EQ(b.next_round, a.next_round);
  EXPECT_EQ(b.rng.words, a.rng.words);
  EXPECT_EQ(b.est_accuracy, a.est_accuracy);
  EXPECT_EQ(b.est_malicious, a.est_malicious);
  EXPECT_EQ(b.last_feedback, a.last_feedback);
  expect_bitwise_equal(a.history, b.history);
}

// `threads` is how many OS threads a restored simulator starts, so a
// checkpoint that asks for more than kMaxSimThreads decodes to a
// DataError. No simulator or pool is built from the huge value.
TEST_F(CheckpointTest, RefusesAThreadCountPastTheCap) {
  SimConfig config = base_config(3);
  config.checkpoint_every = 3;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();
  SimCheckpoint checkpoint = load_checkpoint(path_);
  checkpoint.config.threads = kMaxSimThreads;
  EXPECT_EQ(decode_checkpoint(encode_checkpoint(checkpoint)).config.threads,
            kMaxSimThreads);
  checkpoint.config.threads = std::size_t{1} << 40;
  EXPECT_THROW(decode_checkpoint(encode_checkpoint(checkpoint)), DataError);

  config.threads = kMaxSimThreads + 1;
  EXPECT_THROW(config.validate(), ConfigError);
}

// SimConfig's checks throw ConfigError for user input, but a decoded
// checkpoint that fails them is corrupt data: a DataError, like any other
// invalid payload.
TEST_F(CheckpointTest, ZeroRedesignEveryDecodesToDataError) {
  SimConfig config = base_config(3);
  config.checkpoint_every = 3;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();
  SimCheckpoint checkpoint = load_checkpoint(path_);
  checkpoint.config.redesign_every = 0;
  EXPECT_THROW(checkpoint.config.validate(), ConfigError);
  try {
    decode_checkpoint(encode_checkpoint(checkpoint));
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("redesign_every must be >= 1"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, CorruptedCheckpointIsCleanDataError) {
  SimConfig config = base_config(4);
  config.checkpoint_every = 4;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();

  // Flip one payload byte: the frame checksum must catch it.
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;

  util::RetryPolicy fast;
  fast.max_attempts = 1;
  try {
    load_checkpoint(path_, fast);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kData);
  }
}

TEST_F(CheckpointTest, TruncatedCheckpointIsCleanDataError) {
  SimConfig config = base_config(4);
  config.checkpoint_every = 4;
  config.checkpoint_path = path_;
  StackelbergSimulator(fleet(), config).run();

  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  util::RetryPolicy fast;
  fast.max_attempts = 1;
  // Chop the file at several depths, including inside the header.
  for (const std::size_t keep : {bytes.size() - 7, bytes.size() / 2,
                                 std::size_t{28}, std::size_t{10}}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    std::ofstream(path_, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, keep);
    EXPECT_THROW(load_checkpoint(path_, fast), DataError);
  }
}

TEST_F(CheckpointTest, GarbagePayloadInsideValidFrameIsCleanDataError) {
  // A well-framed file whose payload is not a checkpoint must be rejected
  // by the payload decoder, not crash it.
  util::write_framed_file(path_, "SCKP", SimCheckpoint::kVersion,
                          "not a checkpoint");
  util::RetryPolicy fast;
  fast.max_attempts = 1;
  EXPECT_THROW(load_checkpoint(path_, fast), DataError);
}

TEST_F(CheckpointTest, MissingFileIsDataError) {
  util::RetryPolicy fast;
  fast.max_attempts = 1;
  fast.sleep = false;
  EXPECT_THROW(load_checkpoint((dir_ / "absent.ckpt").string(), fast),
               DataError);
}

TEST_F(CheckpointTest, InjectedWriteFaultsExhaustRetriesAndThrow) {
  SimConfig config = base_config(4);
  StackelbergSimulator(fleet(), config).run();  // state to snapshot

  util::FaultInjectorConfig chaos;
  chaos.enabled = true;
  chaos.seed = 1;
  chaos.site_rates["io.checkpoint_write"] = 1.0;  // every attempt fails
  util::FaultInjector::instance().configure(chaos);

  SimCheckpoint checkpoint;
  checkpoint.config = config;
  checkpoint.workers = fleet();
  checkpoint.next_round = 0;
  checkpoint.rng.words = {1, 2, 3, 4};
  checkpoint.est_accuracy.assign(3, 0.5);
  checkpoint.est_malicious.assign(3, 0.5);
  checkpoint.contracts.assign(3, contract::Contract{});
  checkpoint.last_feedback.assign(3, 0.0);

  util::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep = false;
  EXPECT_THROW(save_checkpoint(path_, checkpoint, policy), DataError);
  EXPECT_EQ(util::FaultInjector::instance().injected("io.checkpoint_write"),
            3u);
  EXPECT_FALSE(std::filesystem::exists(path_));  // nothing half-written
}

}  // namespace
}  // namespace ccd::core
