// serve::Session in ingest mode with the default BiP backend, driven
// directly (no engine): refit rounds redesign every posted contract
// through the session's policy, the rounds in between keep them, a
// cancelled refit keeps the previous contracts until the next refit, the
// same feed always designs the same contracts, the 256-sample window
// slides past its wrap and through a checkpoint bitwise, and a rejected
// round leaves no trace. Opens and restored checkpoints are bounded in
// workers and window length, restored beliefs are range-checked, and ISES
// v1 files still restore.
#include "serve/session.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/requester.hpp"
#include "policy/policy.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace ccd::serve {
namespace {

constexpr std::uint64_t kWorkers = 4;

OpenParams ingest_open() {
  OpenParams params;
  params.mode = SessionMode::kIngest;
  params.rounds = 0;  // unbounded
  params.workers = kWorkers;
  params.refit_every = 2;
  return params;
}

std::vector<IngestObservation> round_of(std::uint64_t round) {
  std::vector<IngestObservation> observations(kWorkers);
  for (std::uint64_t w = 0; w < kWorkers; ++w) {
    IngestObservation& obs = observations[w];
    obs.effort = 1.0 + 0.25 * static_cast<double>((round + w) % 5);
    obs.feedback = 2.0 + 7.5 * obs.effort - 0.9 * obs.effort * obs.effort;
    obs.accuracy_sample = w == 0 ? 1.6 : 0.3;
  }
  return observations;
}

bool same_contracts(const std::vector<contract::Contract>& a,
                    const std::vector<contract::Contract>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_zero() != b[i].is_zero()) return false;
    if (a[i].is_zero()) continue;
    if (a[i].intervals() != b[i].intervals()) return false;
    for (std::size_t l = 0; l <= a[i].intervals(); ++l) {
      if (a[i].knot(l) != b[i].knot(l) || a[i].payment(l) != b[i].payment(l)) {
        return false;
      }
    }
  }
  return true;
}

/// Every knot and payment of every contract, as bit patterns.
std::vector<std::uint64_t> contract_bits(
    const std::vector<contract::Contract>& contracts) {
  std::vector<std::uint64_t> bits;
  for (const contract::Contract& c : contracts) {
    bits.push_back(c.is_zero() ? 0 : c.intervals() + 1);
    if (c.is_zero()) continue;
    for (std::size_t l = 0; l <= c.intervals(); ++l) {
      bits.push_back(std::bit_cast<std::uint64_t>(c.knot(l)));
      bits.push_back(std::bit_cast<std::uint64_t>(c.payment(l)));
    }
  }
  return bits;
}

TEST(IngestSessionTest, ContractsHoldBetweenRefits) {
  Session session("hold", ingest_open(), Session::Env{});
  std::vector<contract::Contract> before = session.contracts();
  for (const contract::Contract& c : before) EXPECT_TRUE(c.is_zero());
  for (std::uint64_t t = 0; t < 8; ++t) {
    const bool refit = (t + 1) % 2 == 0;
    EXPECT_EQ(session.ingest(round_of(t), nullptr), refit) << "round " << t;
    const std::vector<contract::Contract> after = session.contracts();
    if (refit) {
      for (const contract::Contract& c : after) {
        EXPECT_FALSE(c.is_zero()) << "round " << t;
      }
    } else {
      EXPECT_TRUE(same_contracts(after, before)) << "round " << t;
    }
    before = after;
  }
}

TEST(IngestSessionTest, CancelledRefitKeepsPreviousContracts) {
  Session clean("clean", ingest_open(), Session::Env{});
  Session cut("cut", ingest_open(), Session::Env{});
  util::CancellationToken cancelled;
  cancelled.request_cancel();

  for (std::uint64_t t = 0; t < 2; ++t) {
    clean.ingest(round_of(t), nullptr);
    cut.ingest(round_of(t), nullptr);
  }
  const std::vector<contract::Contract> first_refit = cut.contracts();
  ASSERT_TRUE(same_contracts(first_refit, clean.contracts()));

  // Round 4 is a refit round: the clean session redesigns on re-fit
  // curves, the cancelled one keeps what round 2 posted.
  for (std::uint64_t t = 2; t < 4; ++t) {
    clean.ingest(round_of(t), nullptr);
    EXPECT_FALSE(cut.ingest(round_of(t), t == 3 ? &cancelled : nullptr));
  }
  EXPECT_TRUE(same_contracts(cut.contracts(), first_refit));
  EXPECT_FALSE(same_contracts(clean.contracts(), first_refit));

  // The next refit redesigns from scratch and catches up bitwise.
  for (std::uint64_t t = 4; t < 6; ++t) {
    clean.ingest(round_of(t), nullptr);
    EXPECT_EQ(cut.ingest(round_of(t), nullptr), t == 5);
  }
  EXPECT_TRUE(same_contracts(cut.contracts(), clean.contracts()));
}

// Refits design through a per-call cache, so nothing carries over from
// one session (or one refit) to the next: two sessions fed the same rounds
// post bitwise-identical contracts after every round.
TEST(IngestSessionTest, SameFeedDesignsBitwiseIdenticalContracts) {
  Session first("first", ingest_open(), Session::Env{});
  Session second("second", ingest_open(), Session::Env{});
  for (std::uint64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(first.ingest(round_of(t), nullptr),
              second.ingest(round_of(t), nullptr));
    EXPECT_EQ(contract_bits(first.contracts()),
              contract_bits(second.contracts()))
        << "round " << t;
  }
  for (const contract::Contract& c : first.contracts()) {
    EXPECT_FALSE(c.is_zero());
  }
}

// Each worker's window keeps its last 256 samples. 320 rounds slide it
// well past the wrap; a session checkpointed at round 290, restored and
// fed the rest must match one fed all 320 rounds without a break, bit for
// bit: posted contracts, cumulative utility and checkpoint bytes. And the
// samples that slid out must not matter: a session whose first 64 rounds
// carried other efforts and feedback (same accuracy samples, so the same
// estimates) refits round 320 from the same window and posts the same
// contracts.
TEST(IngestSessionTest, SampleWindowWrapsAndResumesBitwise) {
  constexpr std::uint64_t kRounds = 320;
  constexpr std::uint64_t kCut = 290;
  constexpr std::uint64_t kSlidOut = kRounds - 256;
  // A feed that does not repeat within the window, so every refit after
  // the wrap fits a different sample set; `salt` changes the efforts of
  // the rounds that slide out by round 320.
  const auto varied_round = [](std::uint64_t round, std::uint64_t salt = 0) {
    std::vector<IngestObservation> observations(kWorkers);
    for (std::uint64_t w = 0; w < kWorkers; ++w) {
      IngestObservation& obs = observations[w];
      const std::uint64_t key = round < kSlidOut ? round + salt : round;
      const std::uint64_t h = (key * 7919 + w * 104729) % 997;
      obs.effort = 0.4 + 3.0 * static_cast<double>(h) / 997.0;
      obs.feedback = 2.0 + 7.5 * obs.effort - 0.9 * obs.effort * obs.effort +
                     0.05 * static_cast<double>((round + w) % 11);
      obs.accuracy_sample = w == 0 ? 1.6 : 0.3;
    }
    return observations;
  };
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ccd_session_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  Session::Env durable;
  durable.checkpoint_dir = dir.string();
  durable.checkpoint_every = 10;  // snapshots at the cut and at the end
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  Session whole("whole", ingest_open(), durable);
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    whole.ingest(varied_round(t), nullptr);
  }
  std::string cut_path;
  {
    Session cut("cut", ingest_open(), durable);
    for (std::uint64_t t = 0; t < kCut; ++t) {
      cut.ingest(varied_round(t), nullptr);
    }
    cut_path = cut.checkpoint_path();
  }
  const std::unique_ptr<Session> resumed =
      Session::restore("cut", cut_path, durable);
  for (std::uint64_t t = kCut; t < kRounds; ++t) {
    resumed->ingest(varied_round(t), nullptr);
  }

  EXPECT_EQ(resumed->status().next_round, kRounds);
  EXPECT_EQ(contract_bits(resumed->contracts()),
            contract_bits(whole.contracts()));
  Session other("other", ingest_open(), Session::Env{});
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    other.ingest(varied_round(t, 500), nullptr);
  }
  EXPECT_EQ(contract_bits(other.contracts()), contract_bits(whole.contracts()));
  const auto utility_bits = [](const Session& s) {
    return std::bit_cast<std::uint64_t>(
        s.status().cumulative_requester_utility);
  };
  EXPECT_EQ(utility_bits(*resumed), utility_bits(whole));
  const std::string whole_bytes = file_bytes(whole.checkpoint_path());
  EXPECT_FALSE(whole_bytes.empty());
  EXPECT_EQ(file_bytes(resumed->checkpoint_path()), whole_bytes);
  std::filesystem::remove_all(dir);
}

// The interval count m sizes every redesign's k-sweep, so a checksummed
// checkpoint blob (the kRestore handoff) must not carry one past
// core::kMaxIntervals: the restore refuses it instead of leaving the next
// redesign to size its sweep from it. Both session modes' frames.
TEST(SessionRestoreTest, RefusesIntervalCountPastTheCap) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ccd_session_cap_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  Session::Env durable;
  durable.checkpoint_dir = dir.string();
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto version_of = [](const std::string& blob, const char* tag) {
    return util::wire::decode_frame_header(blob, tag, 0, ~0u, blob.size(),
                                           "test blob")
        .version;
  };
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;

  // Ingest (ISES): the payload opens with six 8-byte session fields and
  // six requester doubles; m follows as a little-endian u64.
  Session ingest("ises", ingest_open(), durable);
  ingest.ingest(round_of(0), nullptr);
  const std::string ises = file_bytes(ingest.checkpoint_path());
  EXPECT_NO_THROW(Session::restore_blob("ises", ises, Session::Env{}));
  std::string payload = ises.substr(util::wire::kFrameHeaderSize);
  constexpr std::size_t kIntervalsAt = 12 * 8;
  ASSERT_EQ(util::wire::Reader(payload.substr(kIntervalsAt, 8)).u64(),
            core::RequesterConfig{}.intervals);
  util::wire::Writer huge;
  huge.u64(kHuge);
  payload.replace(kIntervalsAt, 8, huge.take());
  const std::string big_ises =
      util::wire::encode_frame("ISES", version_of(ises, "ISES"), payload);
  EXPECT_THROW(Session::restore_blob("ises", big_ises, Session::Env{}),
               DataError);

  // Simulation (SCKP): the same m through the checkpoint codec.
  OpenParams sim_params;
  sim_params.rounds = 4;
  Session sim("sckp", sim_params, durable);
  sim.advance(2, nullptr);
  const std::string sckp = file_bytes(sim.checkpoint_path());
  EXPECT_NO_THROW(Session::restore_blob("sckp", sckp, Session::Env{}));
  const std::uint32_t version = version_of(sckp, "SCKP");
  core::SimCheckpoint checkpoint = core::decode_checkpoint(
      sckp.substr(util::wire::kFrameHeaderSize), version);
  checkpoint.config.requester.intervals = kHuge;
  const std::string big_sckp = util::wire::encode_frame(
      "SCKP", version, core::encode_checkpoint(checkpoint, version));
  EXPECT_THROW(Session::restore_blob("sckp", big_sckp, Session::Env{}),
               DataError);
  std::filesystem::remove_all(dir);
}

/// The exact bytes of a checkpoint file.
std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A fresh, per-test checkpoint directory, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             (name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  Session::Env env() const {
    Session::Env durable;
    durable.checkpoint_dir = path.string();
    return durable;
  }
  std::filesystem::path path;
};

// A round rejected for a bad observation must change nothing: the round
// is validated whole before any worker's window or estimates move, so the
// session goes on exactly as one that never saw it — same contracts, same
// utility, same ISES bytes.
TEST(IngestSessionTest, RejectedRoundLeavesNoTrace) {
  const ScratchDir dir_a("ccd_reject_a");
  const ScratchDir dir_b("ccd_reject_b");
  Session rejected("s", ingest_open(), dir_a.env());
  Session clean("s", ingest_open(), dir_b.env());
  for (std::uint64_t t = 0; t < 12; ++t) {
    if (t == 6) {
      // NaN in the last worker's observation: workers 0..2 come first.
      std::vector<IngestObservation> bad = round_of(t);
      bad.back().feedback = std::nan("");
      EXPECT_THROW(rejected.ingest(bad, nullptr), DataError);
      std::vector<IngestObservation> negative = round_of(t);
      negative[2].effort = -1.0;
      EXPECT_THROW(rejected.ingest(negative, nullptr), DataError);
    }
    rejected.ingest(round_of(t), nullptr);
    clean.ingest(round_of(t), nullptr);
  }
  EXPECT_EQ(contract_bits(rejected.contracts()),
            contract_bits(clean.contracts()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                rejected.status().cumulative_requester_utility),
            std::bit_cast<std::uint64_t>(
                clean.status().cumulative_requester_utility));
  EXPECT_EQ(rejected.status().next_round, clean.status().next_round);
  const std::string a = read_bytes(rejected.checkpoint_path());
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == read_bytes(clean.checkpoint_path()));
}

// Opens above serve::kMaxSessionWorkers — the observations one
// kMaxMessageBytes ingest frame carries — fail in both modes, before any
// per-worker state is allocated.
TEST(SessionOpenTest, RefusesMoreWorkersThanOneIngestFrameCarries) {
  static_assert(kMaxSessionWorkers == kMaxMessageBytes / 24);
  OpenParams ingest = ingest_open();
  ingest.workers = kMaxSessionWorkers + 1;
  EXPECT_THROW(Session("big", ingest, Session::Env{}), ConfigError);
  OpenParams sim;
  sim.workers = kMaxSessionWorkers + 1;
  EXPECT_THROW(Session("big", sim, Session::Env{}), ConfigError);
}

// A live window never holds more than 256 samples, so a checkpoint blob
// whose window does is refused instead of setting the cost of the next
// ~10,000 refits from client input. 256 still restores.
TEST(SessionRestoreTest, RefusesWindowsPastTheSampleWindow) {
  const ScratchDir dir("ccd_window_cap");
  Session session("ises", ingest_open(), dir.env());
  session.ingest(round_of(0), nullptr);
  const std::string ises = read_bytes(session.checkpoint_path());
  const std::uint32_t version =
      util::wire::decode_frame_header(ises, "ISES", 0, ~0u, ises.size(),
                                      "test blob")
          .version;
  const std::string payload = ises.substr(util::wire::kFrameHeaderSize);
  // Worker 0's record opens at byte 128 (after 16 session fields): two
  // estimates and three psi coefficients, then the window's sample count
  // and its 24-byte samples.
  constexpr std::size_t kCountAt = 128 + 5 * 8;
  ASSERT_EQ(util::wire::Reader(payload.substr(kCountAt, 8)).u64(), 1u);
  const std::string sample = payload.substr(kCountAt + 8, 24);
  const auto with_window = [&](std::uint64_t samples) {
    util::wire::Writer count;
    count.u64(samples);
    std::string edited = payload;
    edited.replace(kCountAt, 8, count.take());
    std::string extra;
    for (std::uint64_t s = 1; s < samples; ++s) extra += sample;
    edited.insert(kCountAt + 8 + 24, extra);
    return util::wire::encode_frame("ISES", version, edited);
  };
  EXPECT_NO_THROW(Session::restore_blob("ises", with_window(256),
                                        Session::Env{}));
  EXPECT_THROW(Session::restore_blob("ises", with_window(257), Session::Env{}),
               DataError);
}

// Nor may a blob carry more workers than an open accepts. The blob below
// is otherwise well-formed: kMaxSessionWorkers + 1 copies of a fresh
// worker's record between a fresh session's header and trailer.
TEST(SessionRestoreTest, RefusesWorkerCountPastTheCap) {
  const ScratchDir dir("ccd_worker_cap");
  OpenParams one = ingest_open();
  one.workers = 1;
  OpenParams two = ingest_open();
  two.workers = 2;
  Session a("one", one, dir.env());
  Session b("two", two, dir.env());
  a.checkpoint();
  b.checkpoint();
  const std::string ises_one = read_bytes(a.checkpoint_path());
  const std::string payload_one = ises_one.substr(util::wire::kFrameHeaderSize);
  const std::string payload_two =
      read_bytes(b.checkpoint_path()).substr(util::wire::kFrameHeaderSize);
  constexpr std::size_t kWorkersAt = 120;
  constexpr std::size_t kFirstRecord = kWorkersAt + 8;
  const std::size_t record = payload_two.size() - payload_one.size();
  const std::uint32_t version =
      util::wire::decode_frame_header(ises_one, "ISES", 0, ~0u,
                                      ises_one.size(), "test blob")
          .version;
  const auto with_workers = [&](std::uint64_t workers) {
    util::wire::Writer count;
    count.u64(workers);
    std::string payload = payload_one.substr(0, kWorkersAt) + count.take();
    payload.reserve(payload_one.size() + workers * record);
    for (std::uint64_t i = 0; i < workers; ++i) {
      payload.append(payload_one, kFirstRecord, record);
    }
    payload.append(payload_one, kFirstRecord + record, std::string::npos);
    return util::wire::encode_frame("ISES", version, payload);
  };
  EXPECT_NO_THROW(Session::restore_blob("ises", with_workers(3),
                                        Session::Env{}));
  EXPECT_THROW(Session::restore_blob("ises",
                                     with_workers(kMaxSessionWorkers + 1),
                                     Session::Env{}),
               DataError);
}

std::uint32_t frame_version(const std::string& blob, const char* tag) {
  return util::wire::decode_frame_header(blob, tag, 0, ~0u, blob.size(),
                                         "test blob")
      .version;
}

// A checksummed blob must not restore beliefs the Eq. 5 weight refuses or
// an EMA rate an open refuses: such a session would fail every later round
// (or, at rate 0, never move its estimates). The restore fails with
// DataError instead, in both modes.
TEST(SessionRestoreTest, RefusesOutOfRangeBeliefs) {
  const ScratchDir dir("ccd_belief_range");
  Session ingest("ises", ingest_open(), dir.env());
  ingest.ingest(round_of(0), nullptr);
  const std::string ises = read_bytes(ingest.checkpoint_path());
  ASSERT_NO_THROW(Session::restore_blob("ises", ises, Session::Env{}));
  const std::uint32_t version = frame_version(ises, "ISES");
  const std::string payload = ises.substr(util::wire::kFrameHeaderSize);
  // ema_alpha is the payload's fourth 8-byte field; worker 0's record
  // opens at byte 128 with est_accuracy, then est_malicious.
  constexpr std::size_t kEmaAlphaAt = 3 * 8;
  constexpr std::size_t kAccuracyAt = 128;
  constexpr std::size_t kMaliciousAt = 128 + 8;
  ASSERT_EQ(util::wire::Reader(payload.substr(kEmaAlphaAt, 8)).f64(), 0.3);
  const auto with_double = [&](std::size_t at, double value) {
    util::wire::Writer w;
    w.f64(value);
    std::string edited = payload;
    edited.replace(at, 8, w.take());
    return util::wire::encode_frame("ISES", version, edited);
  };
  for (const double alpha : {7.0, std::nan(""), 0.0}) {
    EXPECT_THROW(Session::restore_blob("ises", with_double(kEmaAlphaAt, alpha),
                                       Session::Env{}),
                 DataError)
        << "ema_alpha " << alpha;
  }
  EXPECT_THROW(Session::restore_blob("ises", with_double(kMaliciousAt, 2.0),
                                     Session::Env{}),
               DataError);
  for (const double accuracy : {-1.0, std::nan("")}) {
    EXPECT_THROW(Session::restore_blob("ises",
                                       with_double(kAccuracyAt, accuracy),
                                       Session::Env{}),
                 DataError)
        << "est_accuracy " << accuracy;
  }
  // The file path checks the same.
  {
    std::ofstream out(ingest.checkpoint_path(),
                      std::ios::binary | std::ios::trunc);
    out << with_double(kMaliciousAt, 2.0);
  }
  EXPECT_THROW(Session::restore("ises", ingest.checkpoint_path(),
                                Session::Env{}),
               DataError);

  // Simulation (SCKP): est_malicious[0] = 2 through the checkpoint codec.
  OpenParams sim_params;
  sim_params.rounds = 4;
  Session sim("sckp", sim_params, dir.env());
  sim.advance(2, nullptr);
  const std::string sckp = read_bytes(sim.checkpoint_path());
  ASSERT_NO_THROW(Session::restore_blob("sckp", sckp, Session::Env{}));
  const std::uint32_t sim_version = frame_version(sckp, "SCKP");
  core::SimCheckpoint checkpoint = core::decode_checkpoint(
      sckp.substr(util::wire::kFrameHeaderSize), sim_version);
  checkpoint.est_malicious[0] = 2.0;
  EXPECT_THROW(
      Session::restore_blob(
          "sckp",
          util::wire::encode_frame("SCKP", sim_version,
                                   core::encode_checkpoint(checkpoint,
                                                           sim_version)),
          Session::Env{}),
      DataError);
}

// ISES v1 predates the policy section: a v1 file has no backend config,
// learner state or RNG state, and restores as a default-BiP session. A v2
// BiP file framed as v1 without that tail must restore and post what the
// v2 restore posts, through the next two refits.
TEST(SessionRestoreTest, IngestV1CheckpointRestoresAsBip) {
  const ScratchDir dir("ccd_ises_v1");
  Session session("ises", ingest_open(), dir.env());
  for (std::uint64_t t = 0; t < 3; ++t) session.ingest(round_of(t), nullptr);
  const std::string v2 = read_bytes(session.checkpoint_path());
  ASSERT_EQ(frame_version(v2, "ISES"), 2u);
  const std::string payload = v2.substr(util::wire::kFrameHeaderSize);
  // The v2 tail: BiP's policy config, its empty learner state, the RNG.
  util::wire::Writer tail;
  core::encode_policy_config(tail, policy::PolicyConfig{});
  tail.str("");
  const std::string policy_tail = tail.take();
  util::wire::Writer rng;
  core::encode_rng_state(rng, util::RngState{});
  const std::size_t tail_size = policy_tail.size() + rng.take().size();
  ASSERT_GT(payload.size(), tail_size);
  ASSERT_EQ(payload.substr(payload.size() - tail_size, policy_tail.size()),
            policy_tail);
  const std::string v1 = util::wire::encode_frame(
      "ISES", 1, payload.substr(0, payload.size() - tail_size));

  const std::unique_ptr<Session> from_v1 =
      Session::restore_blob("v1", v1, Session::Env{});
  const std::unique_ptr<Session> from_v2 =
      Session::restore_blob("v2", v2, Session::Env{});
  EXPECT_EQ(from_v1->status().next_round, 3u);
  EXPECT_EQ(contract_bits(from_v1->contracts()),
            contract_bits(from_v2->contracts()));
  std::size_t refits = 0;
  for (std::uint64_t t = 3; t < 7; ++t) {
    const bool refit = from_v2->ingest(round_of(t), nullptr);
    EXPECT_EQ(from_v1->ingest(round_of(t), nullptr), refit) << "round " << t;
    EXPECT_EQ(contract_bits(from_v1->contracts()),
              contract_bits(from_v2->contracts()))
        << "round " << t;
    if (refit) ++refits;
  }
  EXPECT_EQ(refits, 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                from_v1->status().cumulative_requester_utility),
            std::bit_cast<std::uint64_t>(
                from_v2->status().cumulative_requester_utility));
}

// A restored simulation session redesigns on the daemon's shared pool,
// whatever thread count its blob carries: a kRestore blob written with
// threads = 2 checkpoints (and so hands off again) with threads = 0.
TEST(SessionRestoreTest, SimulationRestoreRunsOnTheSharedPool) {
  const ScratchDir source("ccd_sckp_threads_from");
  OpenParams sim_params;
  sim_params.rounds = 4;
  Session sim("sckp", sim_params, source.env());
  sim.advance(1, nullptr);
  const std::string sckp = read_bytes(sim.checkpoint_path());
  const std::uint32_t version = frame_version(sckp, "SCKP");
  core::SimCheckpoint checkpoint = core::decode_checkpoint(
      sckp.substr(util::wire::kFrameHeaderSize), version);
  checkpoint.config.threads = 2;
  const std::string blob = util::wire::encode_frame(
      "SCKP", version, core::encode_checkpoint(checkpoint, version));

  const ScratchDir target("ccd_sckp_threads_to");
  const std::unique_ptr<Session> restored =
      Session::restore_blob("sckp", blob, target.env());
  restored->checkpoint();
  const std::string written = read_bytes(restored->checkpoint_path());
  EXPECT_EQ(core::decode_checkpoint(
                written.substr(util::wire::kFrameHeaderSize),
                frame_version(written, "SCKP"))
                .config.threads,
            0u);
}

}  // namespace
}  // namespace ccd::serve
