// Crash-safe checkpoint/resume for the multi-round Stackelberg simulation.
//
// A SimCheckpoint captures the simulator's complete dynamic state at a
// round boundary: the configuration and worker fleet, the round to run
// next, the RNG state (xoshiro words plus the cached Box–Muller deviate),
// the requester's per-worker estimates, the posted contracts, the
// feedback memory that funds next round's compensation (Eq. 1), and the
// accumulated result prefix. Restoring it reproduces the remaining rounds
// bitwise-identically — doubles are serialized as their exact bit
// patterns, never through text round-trips.
//
// On disk a checkpoint is a framed file (util/atomic_file.hpp) with tag
// "SCKP", written via write-temp + fsync + rename so a crash mid-save
// leaves the previous complete checkpoint intact. Loading a corrupted,
// truncated, or torn file throws ccd::DataError — never UB, never a
// half-restored simulator. kVersion is bumped whenever the payload layout
// changes; readers reject versions they do not understand.
//
// save/load wrap their I/O in util::with_retry (metrics: `ccd.io.*`) and
// expose fault-injection sites "io.checkpoint_write" / "io.checkpoint_read"
// keyed by the attempt index, so chaos tests can fail the first attempts
// and assert the backoff path recovers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "contract/contract.hpp"
#include "core/requester.hpp"
#include "core/stackelberg.hpp"
#include "policy/policy.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace ccd::core {

struct SimCheckpoint {
  /// Current payload layout version (frame tag "SCKP").
  /// v2: SimWorkerSpec churn window (arrive_round / depart_round).
  /// v3: policy backend config + opaque learner state (ccd::policy).
  /// Readers accept v2 files (they predate the policy seam and restore
  /// with the default BiP backend and empty learner state).
  static constexpr std::uint32_t kVersion = 3;
  static constexpr std::uint32_t kMinReadVersion = 2;

  SimConfig config;
  std::vector<SimWorkerSpec> workers;

  /// First round the resumed run executes (== completed rounds).
  std::size_t next_round = 0;
  util::RngState rng;
  std::vector<double> est_accuracy;
  std::vector<double> est_malicious;
  std::vector<contract::Contract> contracts;
  std::vector<double> last_feedback;
  /// Completed-rounds prefix (cancelled/cancel_reason are not persisted;
  /// a resumed run starts un-cancelled).
  SimResult history;
  /// Opaque learner state of the configured policy backend (empty for
  /// stateless backends, i.e. every v2 checkpoint). Produced by
  /// Policy::save_state() at a round boundary; restored verbatim.
  std::string policy_state;
};

/// Serialize / parse the checkpoint payload (the bytes inside the frame).
/// `version` selects the payload layout: kVersion (the default) or the
/// still-readable kMinReadVersion (encoding v2 drops the policy fields and
/// requires a default-BiP, stateless checkpoint — used by back-compat
/// tests). decode_checkpoint throws ccd::DataError on any malformed
/// payload or unsupported version.
std::string encode_checkpoint(const SimCheckpoint& checkpoint,
                              std::uint32_t version = SimCheckpoint::kVersion);
SimCheckpoint decode_checkpoint(const std::string& payload,
                                std::uint32_t version = SimCheckpoint::kVersion);

/// Contract codec shared by checkpoints and the serve wire protocol: a
/// zero contract is a bare 0 count; otherwise knot count, delta, knots,
/// payments — all doubles as exact bit patterns. decode_contract throws
/// ccd::DataError on malformed input (via the Reader / Contract
/// validation).
void encode_contract(util::wire::Writer& w, const contract::Contract& contract);
contract::Contract decode_contract(util::wire::Reader& r);

/// Section codecs shared by the SCKP and ISES (serve ingest session)
/// payloads, which lay these sections out identically: RequesterConfig's
/// nine fields, PolicyConfig's six, and util::RngState (xoshiro words, the
/// cached-normal flag and value). The decoders throw ccd::DataError on
/// truncated input; decode_policy_config also on an unknown backend.
void encode_requester_config(util::wire::Writer& w,
                             const RequesterConfig& config);
RequesterConfig decode_requester_config(util::wire::Reader& r);
void encode_policy_config(util::wire::Writer& w,
                          const policy::PolicyConfig& config);
policy::PolicyConfig decode_policy_config(util::wire::Reader& r);
void encode_rng_state(util::wire::Writer& w, const util::RngState& state);
util::RngState decode_rng_state(util::wire::Reader& r);

/// Durably write / read a checkpoint file, retrying transient I/O failures
/// under `retry`. Load failures (including corruption) surface as
/// ccd::DataError after the attempts are exhausted.
void save_checkpoint(const std::string& path, const SimCheckpoint& checkpoint,
                     const util::RetryPolicy& retry = {});
SimCheckpoint load_checkpoint(const std::string& path,
                              const util::RetryPolicy& retry = {});

}  // namespace ccd::core
