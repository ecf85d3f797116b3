#include "serve/session.hpp"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <string_view>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/requester.hpp"
#include "effort/fitting.hpp"
#include "policy/policy.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace ccd::serve {

namespace {

constexpr const char* kIngestTag = "ISES";
constexpr const char* kSimSuffix = ".sim.ckpt";
constexpr const char* kIngestSuffix = ".ingest.ckpt";

/// The mode whose checkpoint suffix ends `name` after a non-empty stem.
std::optional<SessionMode> checkpoint_mode(const std::string& name) {
  for (const SessionMode mode :
       {SessionMode::kSimulation, SessionMode::kIngest}) {
    const std::string_view suffix = Session::checkpoint_suffix(mode);
    if (name.size() > suffix.size() && name.ends_with(suffix)) return mode;
  }
  return std::nullopt;
}

std::string checkpoint_file(const std::string& dir, const std::string& id,
                            SessionMode mode) {
  if (dir.empty()) return {};
  return dir + "/" + id + Session::checkpoint_suffix(mode);
}

/// Resume a simulation from `checkpoint`, its durability re-pointed at
/// `path` (empty: none) and its redesigns on the daemon's shared pool:
/// the checkpoint may have been written under another daemon instance's
/// configuration, or by a client.
std::unique_ptr<core::StackelbergSimulator> resume_simulator(
    core::SimCheckpoint checkpoint, const std::string& path,
    std::size_t checkpoint_every) {
  checkpoint.config.checkpoint_path = path;
  checkpoint.config.checkpoint_every = path.empty() ? 0 : checkpoint_every;
  checkpoint.config.threads = 0;
  return std::make_unique<core::StackelbergSimulator>(checkpoint);
}

}  // namespace

const char* Session::checkpoint_suffix(SessionMode mode) {
  return mode == SessionMode::kSimulation ? kSimSuffix : kIngestSuffix;
}

std::vector<CheckpointFile> list_checkpoint_files(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    throw ConfigError("cannot open checkpoint directory '" + dir + "'");
  }
  std::vector<CheckpointFile> files;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (const std::optional<SessionMode> mode = checkpoint_mode(name)) {
      const std::string_view suffix = Session::checkpoint_suffix(*mode);
      files.push_back({name.substr(0, name.size() - suffix.size()), *mode,
                       dir + "/" + name});
    }
  }
  ::closedir(handle);
  std::sort(files.begin(), files.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.id != b.id ? a.id < b.id : a.path < b.path;
            });
  return files;
}

bool valid_session_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Ingest-mode dynamic state: a core::Requester (the simulator's
/// requester) plus the observed sample windows its effort curves are
/// re-fit from.
struct Session::IngestState {
  /// v2 appends the contract-designer policy section (backend config,
  /// opaque learner state, learner RNG). v1 files still load and restore a
  /// default-BiP session.
  static constexpr std::uint32_t kVersion = 2;
  static constexpr std::uint32_t kMinReadVersion = 1;
  /// Sliding window of retained (effort, feedback) samples per worker —
  /// bounds session memory no matter how long the campaign runs.
  static constexpr std::size_t kSampleWindow = 256;
  /// The assumed-omega cut on est_malicious (SimConfig's default).
  static constexpr double kSuspicionThreshold = 0.5;

  IngestState(core::Requester r, std::size_t refit, std::uint64_t budget,
              util::Rng learner_rng)
      : requester(std::move(r)),
        refit_every(refit),
        rounds_budget(budget),
        samples(requester.workers()),
        rng(learner_rng) {}

  /// Estimates, Eq. 5 weights, policy backend and posted contracts. Its
  /// believed curves start at the library default and are re-fit from
  /// `samples`; it believes RequesterConfig::beta and no partners. BiP
  /// redesigns on refit rounds; learners post fresh contracts every
  /// ingested round and observe every round's rewards.
  core::Requester requester;
  std::size_t refit_every;
  std::uint64_t rounds_budget;  ///< 0 = unbounded
  std::uint64_t round = 0;
  double cumulative_requester_utility = 0.0;

  /// Oldest sample first; a deque so sliding the window is O(1).
  std::vector<std::deque<data::EffortSample>> samples;
  /// The refit's per-worker results, reused across refits (not state).
  std::vector<effort::EffortFitOutcome> fits;
  /// The Policy interface's RNG (current learners draw nothing),
  /// checkpointed so any future drawing backend stays resume-safe.
  util::Rng rng;

  std::size_t workers() const { return requester.workers(); }
  bool finished() const { return rounds_budget > 0 && round >= rounds_budget; }
};

Session::~Session() = default;

Session::Session(std::string id, Env env, SessionMode mode)
    : id_(std::move(id)), env_(std::move(env)), mode_(mode) {
  CCD_CHECK_MSG(env_.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  if (!valid_session_id(id_)) {
    throw ConfigError("invalid session id '" + id_ +
                      "' (1-64 chars of [A-Za-z0-9_-])");
  }
}

Session::Session(std::string id, const OpenParams& params, Env env)
    : Session(std::move(id), std::move(env), params.mode) {
  if (params.workers == 0) {
    throw ConfigError("session needs at least one worker");
  }
  if (params.workers > kMaxSessionWorkers) {
    throw ConfigError("session asks for " + std::to_string(params.workers) +
                      " workers; at most " +
                      std::to_string(kMaxSessionWorkers) +
                      " fit one ingest frame");
  }
  if (mode_ == SessionMode::kSimulation) {
    if (params.rounds == 0) {
      throw ConfigError("simulation session needs rounds >= 1");
    }
    core::SimConfig config;
    config.rounds = params.rounds;
    config.seed = params.seed;
    config.requester.mu = params.mu;
    config.ema_alpha = params.ema_alpha;
    config.policy.kind = params.policy;
    config.checkpoint_path = checkpoint_file(env_.checkpoint_dir, id_, mode_);
    config.checkpoint_every =
        config.checkpoint_path.empty() ? 0 : env_.checkpoint_every;
    sim_ = std::make_unique<core::StackelbergSimulator>(
        core::preset_fleet(params.workers, params.malicious),
        std::move(config));
  } else {
    if (params.refit_every == 0) {
      throw ConfigError("ingest session needs refit_every >= 1");
    }
    core::RequesterConfig requester;
    requester.mu = params.mu;
    policy::PolicyConfig policy;
    policy.kind = params.policy;
    ingest_ = std::make_unique<IngestState>(
        core::Requester(requester, params.ema_alpha,
                        IngestState::kSuspicionThreshold, policy,
                        params.workers),
        params.refit_every, params.rounds, util::Rng(params.seed));
  }
}

SessionStatus Session::status() const {
  SessionStatus s;
  if (mode_ == SessionMode::kSimulation) {
    s.next_round = sim_->next_round();
    s.rounds = sim_->config().rounds;
    s.workers = sim_->worker_count();
    s.cumulative_requester_utility =
        sim_->history().cumulative_requester_utility;
    s.finished = sim_->finished();
  } else {
    s.next_round = ingest_->round;
    s.rounds = ingest_->rounds_budget;
    s.workers = ingest_->workers();
    s.cumulative_requester_utility = ingest_->cumulative_requester_utility;
    s.finished = ingest_->finished();
  }
  return s;
}

core::StepStatus Session::advance(std::size_t rounds,
                                  const util::CancellationToken* cancel) {
  if (mode_ != SessionMode::kSimulation) {
    throw ConfigError("session '" + id_ +
                      "' is an ingest session; advance applies to "
                      "simulation sessions");
  }
  // The simulator writes its own crash-safe checkpoint every completed
  // round (SimConfig::checkpoint_every), so a kill mid-advance loses at
  // most the in-flight round.
  return sim_->step(rounds, cancel);
}

bool Session::ingest(const std::vector<IngestObservation>& observations,
                     const util::CancellationToken* cancel) {
  if (mode_ != SessionMode::kIngest) {
    throw ConfigError("session '" + id_ +
                      "' is a simulation session; ingest applies to "
                      "ingest sessions");
  }
  IngestState& state = *ingest_;
  if (state.finished()) {
    throw ConfigError("session '" + id_ + "' round budget exhausted (" +
                      std::to_string(state.rounds_budget) + " rounds)");
  }
  const std::size_t n = state.workers();
  if (observations.size() != n) {
    throw ConfigError("ingest round carries " +
                      std::to_string(observations.size()) +
                      " observations, session has " + std::to_string(n) +
                      " workers");
  }

  // Validate the whole round before applying any of it: a rejected round
  // leaves the session exactly as it was.
  for (std::size_t i = 0; i < n; ++i) {
    const IngestObservation& obs = observations[i];
    if (!std::isfinite(obs.effort) || !std::isfinite(obs.feedback) ||
        !std::isfinite(obs.accuracy_sample) || obs.effort < 0.0 ||
        obs.feedback < 0.0 || obs.accuracy_sample < 0.0) {
      throw DataError("ingest observation for worker " + std::to_string(i) +
                      " is not finite and non-negative");
    }
  }

  core::Requester& requester = state.requester;
  double weighted_feedback = 0.0;
  double total_pay = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const IngestObservation& obs = observations[i];
    std::deque<data::EffortSample>& window = state.samples[i];
    data::EffortSample sample;
    sample.worker = static_cast<data::WorkerId>(i);
    sample.review = static_cast<data::ReviewId>(state.round);
    sample.effort = obs.effort;
    sample.feedback = obs.feedback;
    window.push_back(sample);
    if (window.size() > IngestState::kSampleWindow) window.pop_front();

    // This round's observables score it at this round's pay, and credit
    // a learner's arm with the weight after this round's update.
    requester.observe(i, obs.accuracy_sample);
    const double weight = requester.weight(i);
    weighted_feedback += weight * obs.feedback;
    total_pay += requester.contracts()[i].pay(obs.feedback);
    requester.credit(i, obs.feedback, weight);
  }
  requester.close_round(state.round, state.rng);
  state.cumulative_requester_utility +=
      weighted_feedback - requester.config().mu * total_pay;
  state.round += 1;

  // BiP re-solves on refit rounds only; learners post fresh arms every
  // round and consume the re-fit effort curves through their views.
  const bool refit_round = state.round % state.refit_every == 0;
  if (refit_round) ingest_refit();
  bool redesigned = false;
  if (refit_round || requester.learns()) {
    policy::PostEnv env;
    env.cancel = cancel;
    // A cancelled post keeps the previous contracts: a learner re-posts on
    // the next ingested round, BiP redesigns on the next refit round.
    redesigned = requester.post(state.round, refit_round, state.rng, env);
  }
  if (!env_.checkpoint_dir.empty() &&
      state.round % env_.checkpoint_every == 0) {
    ingest_checkpoint();
  }
  return redesigned;
}

void Session::ingest_refit() {
  IngestState& state = *ingest_;
  // Incremental re-fit: every window is fit in one batch, oldest sample
  // first, straight from its deque. Workers with enough observed samples
  // get a fresh concave-quadratic effort curve; sparse (< 3 samples) or
  // degenerate windows keep the previous fit (quarantine-style
  // degradation, never a dead session).
  effort::fit_effort_functions(state.samples, state.fits);
  for (std::size_t i = 0; i < state.workers(); ++i) {
    if (!state.fits[i].error) {
      state.requester.set_psi(i, state.fits[i].fit.model);
    }
  }
}

std::vector<contract::Contract> Session::contracts() const {
  return mode_ == SessionMode::kSimulation ? sim_->contracts()
                                           : ingest_->requester.contracts();
}

std::string Session::checkpoint_path() const {
  return checkpoint_file(env_.checkpoint_dir, id_, mode_);
}

void Session::checkpoint() const {
  const std::string path = checkpoint_path();
  if (path.empty()) return;
  if (mode_ == SessionMode::kSimulation) {
    core::save_checkpoint(path, sim_->snapshot());
  } else {
    ingest_checkpoint();
  }
}

void Session::ingest_checkpoint() const {
  const IngestState& state = *ingest_;
  const core::Requester& requester = state.requester;
  util::wire::Writer w;
  w.u64(state.round);
  w.u64(state.rounds_budget);
  w.f64(state.cumulative_requester_utility);
  w.f64(requester.ema_alpha());
  w.u64(state.refit_every);
  w.f64(requester.suspicion_threshold());
  core::encode_requester_config(w, requester.config());
  const std::size_t n = state.workers();
  w.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.f64(requester.est_accuracy()[i]);
    w.f64(requester.est_malicious()[i]);
    w.f64(requester.psi(i).r2());
    w.f64(requester.psi(i).r1());
    w.f64(requester.psi(i).r0());
    w.u64(state.samples[i].size());
    for (const data::EffortSample& sample : state.samples[i]) {
      w.u64(sample.review);
      w.f64(sample.effort);
      w.f64(sample.feedback);
    }
    core::encode_contract(w, requester.contracts()[i]);
  }
  // v2: the contract-designer policy section.
  core::encode_policy_config(w, requester.policy_config());
  w.str(requester.policy_state());
  core::encode_rng_state(w, state.rng.state());
  util::write_framed_file(checkpoint_path(), kIngestTag, IngestState::kVersion,
                          w.take());
}

std::unique_ptr<Session> Session::restore(const std::string& id,
                                          const std::string& path, Env env) {
  const SessionMode mode =
      checkpoint_mode(path).value_or(SessionMode::kIngest);
  auto session =
      std::unique_ptr<Session>(new Session(id, std::move(env), mode));
  if (mode == SessionMode::kSimulation) {
    session->sim_ = resume_simulator(core::load_checkpoint(path),
                                     session->checkpoint_path(),
                                     session->env_.checkpoint_every);
    return session;
  }

  const util::FramedPayload framed = util::read_framed_file(
      path, kIngestTag, IngestState::kMinReadVersion, IngestState::kVersion);
  session->ingest_ = decode_ingest_payload(framed.payload, framed.version);
  return session;
}

std::unique_ptr<Session::IngestState> Session::decode_ingest_payload(
    const std::string& payload, std::uint32_t version) {
  CCD_CHECK_MSG(version >= IngestState::kMinReadVersion &&
                    version <= IngestState::kVersion,
                "unsupported ingest checkpoint payload version " +
                    std::to_string(version));
  try {
    util::wire::Reader r(payload);
    const std::uint64_t round = r.u64();
    const std::uint64_t rounds_budget = r.u64();
    const double cumulative_requester_utility = r.f64();
    const double ema_alpha = r.f64();
    const std::uint64_t refit_every = r.u64();
    const double suspicion_threshold = r.f64();
    const core::RequesterConfig requester = core::decode_requester_config(r);
    const std::size_t n = r.count(48);
    CCD_CHECK_MSG(n >= 1, "ingest checkpoint has no workers");
    CCD_CHECK_MSG(n <= kMaxSessionWorkers,
                  "ingest checkpoint has " << n << " workers, over the cap of "
                                           << kMaxSessionWorkers);
    CCD_CHECK_MSG(refit_every >= 1,
                  "ingest checkpoint refit_every must be >= 1");
    std::vector<double> est_accuracy;
    std::vector<double> est_malicious;
    std::vector<effort::QuadraticEffort> psi;
    std::vector<std::deque<data::EffortSample>> samples;
    std::vector<contract::Contract> contracts;
    for (std::size_t i = 0; i < n; ++i) {
      est_accuracy.push_back(r.f64());
      est_malicious.push_back(r.f64());
      const double r2 = r.f64();
      const double r1 = r.f64();
      const double r0 = r.f64();
      psi.emplace_back(r2, r1, r0);
      const std::size_t window_size = r.count(24);
      CCD_CHECK_MSG(window_size <= IngestState::kSampleWindow,
                    "ingest checkpoint window of worker "
                        << i << " holds " << window_size << " samples, over "
                        << IngestState::kSampleWindow);
      std::deque<data::EffortSample> window;
      for (std::size_t s = 0; s < window_size; ++s) {
        data::EffortSample sample;
        sample.worker = static_cast<data::WorkerId>(i);
        sample.review = static_cast<data::ReviewId>(r.u64());
        sample.effort = r.f64();
        sample.feedback = r.f64();
        window.push_back(sample);
      }
      samples.push_back(std::move(window));
      contracts.push_back(core::decode_contract(r));
    }
    policy::PolicyConfig policy;
    std::string policy_state;
    util::Rng rng{1};
    if (version >= 2) {
      policy = core::decode_policy_config(r);
      policy_state = r.str();
      rng.set_state(core::decode_rng_state(r));
    }
    r.finish();
    auto state = std::make_unique<IngestState>(
        core::Requester(requester, ema_alpha, suspicion_threshold, policy, n),
        refit_every, rounds_budget, rng);
    state->requester.restore(std::move(est_accuracy), std::move(est_malicious),
                             std::move(contracts), policy_state);
    for (std::size_t i = 0; i < n; ++i) state->requester.set_psi(i, psi[i]);
    state->round = round;
    state->cumulative_requester_utility = cumulative_requester_utility;
    state->samples = std::move(samples);
    return state;
  } catch (const DataError&) {
    throw;
  } catch (const Error& e) {
    throw DataError(std::string("invalid ingest-session checkpoint: ") +
                    e.what());
  }
}

std::unique_ptr<Session> Session::restore_blob(const std::string& id,
                                               const std::string& blob,
                                               Env env) {
  if (blob.size() < util::wire::kFrameHeaderSize) {
    throw DataError("checkpoint blob shorter than a frame header (" +
                    std::to_string(blob.size()) + " bytes)");
  }
  // The frame tag (bytes 4..8) names the session mode; full header and
  // checksum validation happens below under the tag-specific version.
  const std::string tag = blob.substr(4, 4);
  SessionMode mode;
  std::uint32_t min_version;
  std::uint32_t max_version;
  if (tag == "SCKP") {
    mode = SessionMode::kSimulation;
    min_version = core::SimCheckpoint::kMinReadVersion;
    max_version = core::SimCheckpoint::kVersion;
  } else if (tag == kIngestTag) {
    mode = SessionMode::kIngest;
    min_version = IngestState::kMinReadVersion;
    max_version = IngestState::kVersion;
  } else {
    throw DataError("checkpoint blob has unknown frame tag '" + tag + "'");
  }
  const util::wire::FrameHeader header = util::wire::decode_frame_header(
      blob, tag, min_version, max_version, blob.size(), "checkpoint blob");
  if (blob.size() != util::wire::kFrameHeaderSize + header.payload_size) {
    throw DataError("checkpoint blob size mismatch (header announces " +
                    std::to_string(header.payload_size) + " payload bytes, " +
                    std::to_string(blob.size() - util::wire::kFrameHeaderSize) +
                    " present)");
  }
  const std::string payload = blob.substr(util::wire::kFrameHeaderSize);
  util::wire::verify_frame_payload(header, payload, "checkpoint blob");

  auto session =
      std::unique_ptr<Session>(new Session(id, std::move(env), mode));
  if (mode == SessionMode::kSimulation) {
    session->sim_ = resume_simulator(
        core::decode_checkpoint(payload, header.version),
        session->checkpoint_path(), session->env_.checkpoint_every);
  } else {
    session->ingest_ = decode_ingest_payload(payload, header.version);
  }
  return session;
}

void Session::remove_checkpoint() const {
  const std::string path = checkpoint_path();
  if (!path.empty()) std::remove(path.c_str());
}

}  // namespace ccd::serve
