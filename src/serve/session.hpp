// One long-lived campaign session — the serving unit of the paper's
// repeated principal-agent loop (contracts for round t are a function of
// round t−1 feedback, Eq. 4/5).
//
// Two modes share the lifecycle:
//  * Simulation sessions own a core::StackelbergSimulator and advance it
//    round-by-round on request. Determinism contract: driving a session
//    for T rounds over any number of requests leaves contracts bitwise-
//    identical to one StackelbergSimulator::run of T rounds on the same
//    seed (tested end-to-end over the socket).
//  * Ingest sessions are fed observed per-round feedback
//    (effort, feedback, accuracy sample) per worker. The session's
//    requester is a core::Requester, the simulator's own (EMA estimates
//    of accuracy/maliciousness, Eq. 5 weights, policy backend); the
//    session accumulates a bounded sliding window of effort samples,
//    re-fits every worker's effort curve every `refit_every` rounds in
//    one effort::fit_effort_functions batch (bit-for-bit
//    fit_effort_function, four workers per AVX2 lane), and re-designs all
//    contracts in one contract::design_contracts_batch call on
//    util::shared_pool() without a cache, so its design tables are
//    dropped when the call returns. The window is a deque (O(1) per
//    observation); a refit reads it in place, oldest sample first.
//
// Durability: when a checkpoint directory is configured every completed
// round snapshots crash-safely. Simulation sessions reuse core/checkpoint
// verbatim (SimConfig::checkpoint_path pointed into the directory, frame
// tag "SCKP"); ingest sessions serialize their own state under frame tag
// "ISES" with the same util/wire + util/atomic_file primitives and
// core/checkpoint's section codecs (requester config, policy config, RNG
// state). A killed daemon restores every open session bitwise-identically
// from these files. Both decoders check the restored beliefs through
// core::Requester::validate, so a blob whose estimates or EMA rate are out
// of range fails its restore with DataError instead of every later round.
//
// Thread safety: none here — the engine serializes operations per session
// via mutex() while allowing different sessions to proceed in parallel.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/stackelberg.hpp"
#include "data/metrics.hpp"
#include "serve/protocol.hpp"

namespace ccd::serve {

/// True when `id` is usable as a session name (and thus a checkpoint file
/// stem): 1..64 chars from [A-Za-z0-9_-].
bool valid_session_id(const std::string& id);

/// One session checkpoint file, `<dir>/<id>.sim.ckpt` or
/// `<dir>/<id>.ingest.ckpt`.
struct CheckpointFile {
  std::string id;
  SessionMode mode;
  std::string path;
};

/// The session checkpoint files in `dir`, sorted by id, then path (so the
/// order does not depend on the filesystem). Throws ccd::ConfigError when
/// the directory cannot be opened.
std::vector<CheckpointFile> list_checkpoint_files(const std::string& dir);

class Session {
 public:
  /// Engine-provided environment shared by all sessions.
  struct Env {
    /// Directory for per-session checkpoint files; empty disables
    /// durability.
    std::string checkpoint_dir;
    /// Snapshot cadence in completed rounds (>= 1).
    std::size_t checkpoint_every = 1;
  };

  /// Open a fresh session. Throws ccd::ConfigError on bad id or params,
  /// including more than kMaxSessionWorkers workers and requester
  /// parameters core::Requester::validate refuses (mu, ema_alpha).
  Session(std::string id, const OpenParams& params, Env env);
  ~Session();  // out-of-line: IngestState is incomplete here

  /// Restore a session from its checkpoint file (either mode; the mode is
  /// recovered from the frame tag). Throws ccd::DataError on corruption,
  /// on beliefs core::Requester::validate refuses, and on an ingest
  /// checkpoint with more than kMaxSessionWorkers workers or a window
  /// longer than a live session keeps.
  static std::unique_ptr<Session> restore(const std::string& id,
                                          const std::string& path, Env env);

  /// Restore a session from an in-memory checkpoint-frame image (the exact
  /// bytes of a .sim.ckpt / .ingest.ckpt file) — the gateway's failover
  /// handoff path: checkpoints travel over the wire, never through a
  /// shared filesystem. The mode is recovered from the frame tag. Throws
  /// ccd::DataError on corruption.
  static std::unique_ptr<Session> restore_blob(const std::string& id,
                                               const std::string& blob,
                                               Env env);

  /// Checkpoint-file suffix for `mode` (".sim.ckpt" / ".ingest.ckpt") —
  /// how gateways and engines recognize session checkpoints on disk.
  static const char* checkpoint_suffix(SessionMode mode);

  SessionStatus status() const;

  /// Advance a simulation session by up to `rounds` rounds. Throws
  /// ccd::ConfigError on an ingest session.
  core::StepStatus advance(std::size_t rounds,
                           const util::CancellationToken* cancel);

  /// Ingest one observed round (one observation per worker) into an
  /// ingest session; returns true when a redesign ran. A cancelled
  /// redesign leaves the previous contracts posted and reports via
  /// `cancel`. Throws ccd::ConfigError on a simulation session or a
  /// wrong-sized observation vector, and ccd::DataError on a non-finite or
  /// negative value; a rejected round leaves the session unchanged.
  bool ingest(const std::vector<IngestObservation>& observations,
              const util::CancellationToken* cancel);

  /// Currently posted contracts (zero contracts before the first design).
  std::vector<contract::Contract> contracts() const;

  /// Force a snapshot now (no-op without a checkpoint directory).
  void checkpoint() const;
  /// Delete the session's checkpoint file (on close; no-op when absent).
  void remove_checkpoint() const;
  /// Path of this session's checkpoint file ("" without a directory).
  std::string checkpoint_path() const;

  /// Per-session operation lock (held by the engine around every op).
  std::mutex& mutex() { return mutex_; }

  /// Record a use now (engine calls this on every session-scoped op);
  /// feeds the idle-TTL eviction clock.
  void touch() {
    last_used_.store(std::chrono::steady_clock::now().time_since_epoch().count(),
                     std::memory_order_relaxed);
  }

  /// Time since the last touch() (or construction).
  std::chrono::nanoseconds idle_for() const {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::nanoseconds(
        now.count() - last_used_.load(std::memory_order_relaxed));
  }

 private:
  struct IngestState;

  Session(std::string id, Env env, SessionMode mode);
  void ingest_checkpoint() const;
  void ingest_refit();
  static std::unique_ptr<IngestState> decode_ingest_payload(
      const std::string& payload, std::uint32_t version);

  std::string id_;
  Env env_;
  SessionMode mode_;
  std::mutex mutex_;
  std::atomic<std::chrono::steady_clock::duration::rep> last_used_{
      std::chrono::steady_clock::now().time_since_epoch().count()};

  // kSimulation
  std::unique_ptr<core::StackelbergSimulator> sim_;

  // kIngest
  std::unique_ptr<IngestState> ingest_;
};

}  // namespace ccd::serve
