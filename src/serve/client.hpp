// Client side of the serve protocol: one blocking connection with typed
// helpers over the framed request/response codec. Used by `ccdctl serve`
// / `ccdctl submit` and the serve load bench; embedders can also speak to
// an in-process Engine directly and skip the socket.
//
// Error mapping: a non-ok response rethrows client-side as the matching
// ccd::Error class (throw_status), so `ccdctl` exit codes work unchanged
// over the wire — e.g. a server-side deadline surfaces as
// ccd::CancelledError (exit code 6). The two serve-specific statuses
// (kBackpressure, kShuttingDown) are surfaced on the Response instead of
// thrown where the caller is expected to handle them (advance/call),
// since retrying is the client's job, not an exception.
//
// Reconnect-and-reattach: the client remembers its dial target, and a
// transport failure (daemon restarted, connection reset, stalled I/O past
// the timeout) redials with exponential backoff and reissues the request,
// up to ClientOptions::max_reconnects times per call. Successful redials
// count in `ccd.serve.client.reconnects`. Semantics are at-least-once: a
// request whose connection died between server execution and the response
// is re-executed after reconnecting. Session ops are designed for this —
// advance is budget-capped (re-advancing a finished session is a no-op),
// open with allow_existing re-attaches — but a retried close can report
// "no open session" when the first close already landed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/socket.hpp"

namespace ccd::serve {

struct ClientOptions {
  /// Per-transfer deadline on the connection (a stalled server surfaces
  /// as ccd::DataError instead of blocking forever). <= 0 disables.
  int io_timeout_ms = 0;
  /// Redial attempts per call after a transport failure; 0 disables
  /// reconnecting (the first DataError propagates).
  std::size_t max_reconnects = 3;
  /// Exponential redial backoff: first wait, then * multiplier each try.
  double reconnect_backoff_s = 0.05;
  double reconnect_multiplier = 2.0;
  /// Shared secret for the CSRV v3 token handshake, run on every
  /// (re)connect before any other frame. Empty skips the handshake; a
  /// server that requires one then rejects with Status::kAuth, which the
  /// typed helpers surface as ccd::AuthError (ccdctl exit code 7).
  std::string auth_token;
};

class Client {
 public:
  static Client connect_unix(const std::string& path,
                             ClientOptions options = {});
  static Client connect_tcp(const std::string& host, int port,
                            ClientOptions options = {});

  /// Send one request, wait for its response, transparently reconnecting
  /// per ClientOptions. Throws ccd::DataError once transport/framing
  /// failures exhaust the redial budget. Does NOT throw on error statuses
  /// — raw access for callers that handle backpressure/deadline
  /// themselves.
  Response call(const Request& request);

  // Typed helpers. All throw the mapped ccd::Error on error statuses
  // except where documented. `deadline_ms` 0 means no deadline.

  /// Server banner (e.g. "ccd-serve/1").
  std::string ping();

  /// Open (or, with params.allow_existing, attach to) a session.
  SessionStatus open(const std::string& session, const OpenParams& params,
                     std::uint32_t deadline_ms = 0);

  struct AdvanceResult {
    SessionStatus session;
    /// True when the server's deadline expired mid-advance; completed
    /// rounds are retained server-side and the call can be reissued.
    bool deadline_expired = false;
    /// True when the admission queue rejected the request (nothing
    /// happened server-side); retry after a pause.
    bool backpressure = false;
    /// True when the gateway had no alive shard to route to (nothing
    /// happened server-side); retry once a shard rejoins.
    bool unavailable = false;
  };
  /// Advance a simulation session by up to `rounds` rounds. Deadline and
  /// backpressure are reported, not thrown; other errors throw.
  AdvanceResult advance(const std::string& session, std::uint64_t rounds,
                        std::uint32_t deadline_ms = 0);

  /// Currently posted contracts.
  std::vector<contract::Contract> contracts(const std::string& session,
                                            std::uint32_t deadline_ms = 0);

  SessionStatus status(const std::string& session,
                       std::uint32_t deadline_ms = 0);

  /// Close and forget the session (removes its checkpoint).
  SessionStatus close_session(const std::string& session,
                              std::uint32_t deadline_ms = 0);

  /// Server metrics dump (JSON or Prometheus exposition text).
  std::string metrics(bool prometheus = false);

  /// Load/liveness snapshot (kHealth).
  HealthInfo health();

  /// Ask the daemon to drain and exit.
  void shutdown_server();

  // Gateway membership admin (kJoin / kRetire). Return the gateway's
  // summary text ("ring_version=... sessions_moved=..."); errors throw
  // (an admin race — unknown retire target, name conflict — surfaces as
  // the retryable ccd::Error mapped from Status::kUnavailable).

  /// Admit (or rejoin) a shard into a gateway's ring at runtime.
  std::string join_shard(const ShardTarget& shard);
  /// Retire a shard by name (graceful leave; idempotent).
  std::string retire_shard(const std::string& name);

 private:
  struct Target {
    bool unix_domain = true;
    std::string path_or_host;
    int port = -1;
  };

  Client(util::Socket socket, Target target, ClientOptions options);
  Response roundtrip(Request request);
  util::Socket dial() const;

  util::Socket socket_;
  Target target_;
  ClientOptions options_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace ccd::serve
