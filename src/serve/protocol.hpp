// Wire protocol of the ccd serving layer (`ccdd` daemon + serve::Client).
//
// Every message — request or response — is one frame: the 28-byte "CCDF"
// header from util/wire.hpp under tag "CSRV" (version kProtocolVersion,
// FNV-1a payload checksum), followed by a util::wire byte payload. The
// framing is byte-identical to the on-disk framed-file format, so a
// message captured off the wire validates with the same code path as a
// checkpoint file, and corruption anywhere surfaces as ccd::DataError
// before any field is decoded.
//
// The protocol is session-oriented, mirroring the paper's repeated
// principal-agent structure: a requester opens a campaign session, streams
// round activity into it (advance for simulated rounds, ingest for
// observed per-round feedback), fetches the currently posted contracts,
// and closes. Requests carry a client-chosen request_id (echoed verbatim)
// and an optional deadline in milliseconds that the engine maps onto a
// util::CancellationToken.
//
// Responses always carry a Status. kOk..kDeadline mirror ccd::ErrorCode
// (so a client can rethrow the exact error class); kBackpressure is the
// explicit overload signal — the admission queue was full, nothing was
// enqueued, retry later; kShuttingDown means the daemon is draining.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "contract/contract.hpp"
#include "policy/policy.hpp"
#include "util/error.hpp"

namespace ccd::util {
class Socket;
}

namespace ccd::serve {

inline constexpr const char* kFrameTag = "CSRV";
/// v2 added restore (checkpoint handoff) and health ops. v3 adds the
/// token handshake (kAuth + Status::kAuth), dynamic membership admin ops
/// (kJoin / kRetire), the rebalance primitives (kExport / kListSessions),
/// and the retryable Status::kUnavailable. v4 adds the contract-designer
/// policy backend selector to OpenParams (ccd::policy — BiP / zooming
/// bandit / posted-price).
inline constexpr std::uint32_t kProtocolVersion = 4;
/// Hard cap on a single message payload; a header announcing more is
/// rejected before any allocation (garbage/torn streams, never OOM).
inline constexpr std::uint64_t kMaxMessageBytes = 16ull << 20;
/// Most workers one session may have, in either mode: the observations
/// one kMaxMessageBytes ingest frame can carry at 24 B each. Opens above
/// it fail with kConfigError; a checkpoint above it fails to decode.
inline constexpr std::uint64_t kMaxSessionWorkers = kMaxMessageBytes / 24;

enum class Op : std::uint8_t {
  kPing = 0,
  kOpen = 1,
  kAdvance = 2,
  kIngest = 3,
  kContracts = 4,
  kStatus = 5,
  kClose = 6,
  kMetrics = 7,
  kShutdown = 8,
  /// Install a session from raw checkpoint-frame bytes (SCKP/ISES) carried
  /// in Request::checkpoint_blob — the gateway's failover handoff path.
  /// Idempotent: restoring an id that is already open returns its status.
  kRestore = 9,
  /// Lightweight load/liveness probe; the response carries HealthInfo.
  kHealth = 10,
  /// Token handshake (v3). First kAuth with an empty proof is a challenge
  /// request — the response carries a per-connection nonce in `text`
  /// (empty when the server has no token configured). Second kAuth carries
  /// hex(HMAC-SHA256(token, nonce)) in Request::auth_proof. A wrong or
  /// replayed proof gets Status::kAuth and the connection is closed.
  kAuth = 11,
  /// Gateway admin (v3): admit a shard described by Request::shard into
  /// the ring at runtime (join, or rejoin of a retired name). Rebalances
  /// by moving only sessions whose ring owner changed.
  kJoin = 12,
  /// Gateway admin (v3): drain a live shard out of the ring by name
  /// (Request::shard.name). Idempotent; unknown names are a race
  /// (Status::kUnavailable), not a config error.
  kRetire = 13,
  /// Checkpoint a session, remove it from this shard, and return the raw
  /// framed checkpoint bytes in Response::checkpoint_blob — the rebalance
  /// counterpart of kRestore. Works on idle-evicted sessions too.
  kExport = 14,
  /// List the session ids this shard holds (in memory or idle-evicted to
  /// its checkpoint dir) in Response::session_ids.
  kListSessions = 15,
};

const char* to_string(Op op);

enum class Status : std::uint8_t {
  kOk = 0,
  // 1..6 mirror ccd::ErrorCode — see util/error.hpp.
  kGenericError = 1,
  kConfigError = 2,
  kDataError = 3,
  kMathError = 4,
  kContractError = 5,
  kDeadline = 6,
  /// Admission queue full: the request was NOT enqueued. Explicit
  /// backpressure — the client owns the retry.
  kBackpressure = 7,
  /// The engine is draining; no new work is admitted.
  kShuttingDown = 8,
  /// Transient routing outage (no alive shard, or an admin op raced a
  /// membership change). Retryable — clients back off like backpressure
  /// instead of failing with a config error.
  kUnavailable = 9,
  /// Authentication required/failed; the server closes the connection.
  /// Maps to ccd::AuthError (ccdctl exit code 7). Not retryable.
  kAuth = 10,
};

inline bool is_error(Status status) { return status != Status::kOk; }

/// Status for an error escaping a handler (ErrorCode -> matching Status).
Status status_for(const ccd::Error& error);

/// Rethrow a non-ok response client-side as the matching ccd::Error class
/// (kBackpressure / kShuttingDown map to ccd::Error with kGeneric).
[[noreturn]] void throw_status(Status status, const std::string& message);

/// Session kind: simulation sessions run the Stackelberg physics
/// server-side (seeded, bitwise-reproducible); ingest sessions are fed
/// observed per-round feedback and re-fit/re-design from it.
enum class SessionMode : std::uint8_t {
  kSimulation = 0,
  kIngest = 1,
};

struct OpenParams {
  SessionMode mode = SessionMode::kSimulation;
  /// Round budget (simulation: total rounds; ingest: unlimited when 0).
  std::uint64_t rounds = 40;
  std::uint64_t workers = 6;
  std::uint64_t malicious = 2;  ///< simulation fleet only
  std::uint64_t seed = 1;  ///< simulation fleet; also the learner RNG seed
  double mu = 1.0;
  /// Ingest mode: re-fit effort curves and re-design contracts every this
  /// many ingested rounds.
  std::uint64_t refit_every = 4;
  double ema_alpha = 0.3;
  /// Opening an already-open session returns its status instead of a
  /// config error (idempotent `ccdctl submit`).
  bool allow_existing = false;
  /// Contract-designer backend (v4): the paper's BiP, or one of the online
  /// learners (see policy/policy.hpp). Applies to both modes; learner
  /// state rides the session's checkpoint frames.
  policy::Kind policy = policy::Kind::kBip;
};

/// One worker's observed round in an ingest session.
struct IngestObservation {
  double effort = 0.0;
  double feedback = 0.0;
  /// Observed |score - consensus| sample feeding the EMA estimates.
  double accuracy_sample = 0.0;
};

/// Wire description of a shard endpoint for the kJoin admin op (kRetire
/// uses only `name`). Mirrors serve::ShardSpec, which owns validation.
struct ShardTarget {
  std::string name;
  std::string unix_socket;           ///< non-empty: Unix-domain transport
  std::string host = "127.0.0.1";    ///< TCP transport when tcp_port >= 0
  std::int32_t tcp_port = -1;
  std::string checkpoint_dir;        ///< scavenged on shard death
};

struct Request {
  Op op = Op::kPing;
  std::uint64_t request_id = 0;
  std::string session;  ///< empty for server-wide ops (ping/metrics/shutdown)
  /// Wall-clock budget including queue wait; 0 = none.
  std::uint32_t deadline_ms = 0;
  OpenParams open;                                ///< kOpen
  std::uint64_t advance_rounds = 1;               ///< kAdvance
  std::vector<IngestObservation> observations;    ///< kIngest
  bool metrics_prometheus = false;                ///< kMetrics format
  /// kRestore: raw framed checkpoint bytes (a .sim.ckpt / .ingest.ckpt
  /// file image); the engine decodes the frame tag to pick the mode.
  std::string checkpoint_blob;
  /// kAuth: hex(HMAC-SHA256(token, nonce)); empty requests a challenge.
  std::string auth_proof;
  ShardTarget shard;                              ///< kJoin / kRetire
};

struct SessionStatus {
  std::uint64_t next_round = 0;  ///< completed rounds == next round index
  std::uint64_t rounds = 0;      ///< configured budget (0 = unbounded ingest)
  std::uint64_t workers = 0;
  double cumulative_requester_utility = 0.0;
  bool finished = false;
};

/// Snapshot of engine load for kHealth — what a gateway needs to route and
/// to notice a shard drowning or draining.
struct HealthInfo {
  std::uint64_t sessions_open = 0;
  std::uint64_t max_sessions = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  bool draining = false;
};

struct Response {
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  std::string message;  ///< error text; empty when ok
  /// Filled for session-scoped ops (open/advance/ingest/status/close).
  SessionStatus session;
  std::vector<contract::Contract> contracts;  ///< kContracts
  std::string text;  ///< kPing banner / kMetrics dump / kAuth nonce
  bool redesigned = false;                    ///< kIngest: redesign ran
  HealthInfo health;                          ///< kHealth
  std::string checkpoint_blob;                ///< kExport
  std::vector<std::string> session_ids;       ///< kListSessions
};

/// Payload codecs (the bytes inside the frame). Decoders throw
/// ccd::DataError on malformed input.
std::string encode_request(const Request& request);
Request decode_request(const std::string& payload);
std::string encode_response(const Response& response);
Response decode_response(const std::string& payload);

/// Framed message transport: header + checksummed payload, one frame per
/// message. recv_message returns nullopt on a clean peer close between
/// messages and throws ccd::DataError on corruption or mid-frame EOF.
///
/// The deadline variants bound how long a stalled peer can pin the caller:
/// `idle_timeout_ms` caps the wait for a frame header (how long between
/// messages), `io_timeout_ms` caps each transfer once a frame has started
/// (header bytes mid-read, payload, or an outbound frame). Expiry throws
/// ccd::DataError; <= 0 disables that deadline. Both carry deterministic
/// fault-injection sites `serve.frame_write` / `serve.frame_read` keyed by
/// the frame checksum.
void send_message(util::Socket& socket, const std::string& payload,
                  int io_timeout_ms = 0);
std::optional<std::string> recv_message(util::Socket& socket,
                                        int idle_timeout_ms = 0,
                                        int io_timeout_ms = 0);

/// Per-connection server-side state for the v3 token handshake. A server
/// thread creates one per accepted connection:
///
///   AuthGate gate;
///   gate.token = config.auth_token;
///   gate.require = !gate.token.empty() &&
///                  (config.require_auth || !socket.peer_is_loopback());
///
/// and routes every decoded request through auth_intercept() before its
/// normal dispatch.
struct AuthGate {
  std::string token;          ///< shared secret; empty = auth not configured
  bool require = false;       ///< this connection must authenticate
  bool authenticated = false;
  std::string nonce;          ///< outstanding challenge, one proof attempt
};

/// Handle the handshake + enforcement for one request. Returns the
/// response to send when the gate consumes the request (any Op::kAuth, or
/// a rejected unauthenticated request); nullopt means the request may
/// proceed to normal dispatch. Sets `close_connection` when the server
/// must drop the connection after responding (failed or replayed proof,
/// unauthenticated request on a requiring connection).
std::optional<Response> auth_intercept(AuthGate& gate, const Request& request,
                                       bool& close_connection);

/// Client side of the handshake, run once per (re)connect before any other
/// frame. No-op when `token` is empty or the server has no token
/// configured. Throws ccd::AuthError when the server rejects the proof.
void client_handshake(util::Socket& socket, const std::string& token,
                      int io_timeout_ms);

}  // namespace ccd::serve
