// serve::Gateway — fault-tolerant front end for a fleet of ccdd shards.
//
// The gateway speaks the same CSRV framed protocol on both sides: clients
// connect to it exactly as they would to a single ccdd, and it
// consistent-hashes each session id onto one of N shards (FNV-1a ring
// with virtual nodes), forwarding session-scoped requests over pooled
// shard connections. Server-wide ops answer locally: ping identifies the
// gateway, metrics dumps the gateway process registry (ccd.gateway.*),
// health aggregates the latest per-shard probes, shutdown broadcasts to
// every live shard and then drains the gateway itself.
//
// Failure handling is the point of the layer:
//  * Liveness — a background prober sends a lightweight health frame to
//    every shard on a cadence; shard dials go through util::with_retry
//    (bounded attempts, exponential backoff, deterministic jitter) and
//    carry the `gateway.shard_connect` fault-injection site.
//  * Failover — when a shard dies (kill -9, crash, or an operator
//    retire), its ring points are dropped and every session checkpoint in
//    its checkpoint directory is scavenged: the raw SCKP/ISES frame bytes
//    are shipped to the surviving owner via the restore op, which installs
//    the session bitwise-identically (the checkpoint frames make sessions
//    fully portable). In-flight requests to the dead shard retry and land
//    on the new owner; advance is budget-capped, so replay after an
//    ambiguous failure cannot over-run a campaign (ingest replay is
//    at-least-once — see docs/API.md).
//  * Backpressure — at most max_inflight forwarded requests run at once;
//    beyond that the gateway answers kBackpressure immediately without
//    buffering, so overload degrades throughput, never memory. Shard-side
//    backpressure passes through untouched.
//
// Every observable lands under `ccd.gateway.*`, and the counters
// reconcile exactly (tested in bench_gateway_chaos): requests ==
// responses, and responses == local + backpressure + rejected +
// (forwards - forward_retries) + forward_failures.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "util/retry.hpp"
#include "util/socket.hpp"

namespace ccd::serve {

class Server;

/// One backend ccdd shard: where to dial it and where it keeps its
/// session checkpoints (scavenged on failover).
struct ShardSpec {
  /// Unique label, used in routing, errors, and retire_shard().
  std::string name;
  /// Dial target: Unix-domain socket path, or loopback TCP when empty.
  std::string unix_socket;
  std::string host = "127.0.0.1";
  int tcp_port = -1;
  /// The shard's checkpoint_dir. Required for failover handoff; empty
  /// means this shard's sessions die with it.
  std::string checkpoint_dir;

  void validate() const;

  /// True when two specs dial the same endpoint with the same checkpoint
  /// directory (the idempotence test for a repeated join).
  bool same_target(const ShardSpec& other) const;

  /// Parse the tools' shard grammar:
  ///   NAME=unix:SOCKET[@CKPT_DIR]  |  NAME=tcp:HOST:PORT[@CKPT_DIR]
  /// Shared by ccd-gateway (startup flags) and ccdctl (op=join). Throws
  /// ccd::ConfigError on malformed input.
  static ShardSpec parse(const std::string& text);

  /// Wire conversions for the kJoin admin frame.
  ShardTarget to_target() const;
  static ShardSpec from_target(const ShardTarget& target);
};

struct GatewayConfig {
  std::vector<ShardSpec> shards;

  /// Gateway's own listeners (same semantics as ServerConfig; the TCP
  /// listener binds loopback).
  std::string unix_socket;
  int tcp_port = -1;

  /// Concurrent forwarded requests beyond which the gateway answers
  /// kBackpressure immediately (overload degrades throughput, not memory).
  std::size_t max_inflight = 256;
  /// Ring points per shard; more points smooth the key distribution.
  std::size_t virtual_nodes = 64;
  /// Per-transfer deadline on downstream (client) connections and shard
  /// frame payloads. <= 0 disables.
  int io_timeout_ms = 10'000;
  /// Idle deadline between frames on client connections. <= 0 disables.
  int idle_timeout_ms = 0;
  /// How long to wait for a shard's response to a forwarded request (the
  /// shard may be legitimately busy simulating). <= 0 disables.
  int forward_timeout_ms = 60'000;
  /// Shard health-probe cadence; <= 0 disables the prober thread (death
  /// is then detected only by failing traffic).
  int health_interval_ms = 500;
  /// Retry/backoff for shard dials (util::with_retry).
  util::RetryPolicy connect_retry;
  /// Shared secret for the CSRV v3 token handshake. When set, non-loopback
  /// TCP clients must authenticate, and shard dials run the client side of
  /// the handshake (so shards may require the same token). Empty disables.
  std::string auth_token;
  /// Require the handshake on every TCP connection, loopback included
  /// (deployments where localhost is not trusted; also the testable knob).
  bool require_auth = false;

  void validate() const;
};

class Gateway {
 public:
  /// Connects nothing eagerly, starts probing (when configured), then
  /// listens through a serve::Server whose handler is handle(). Throws
  /// ccd::ConfigError / ccd::DataError on bad config or bind failure.
  explicit Gateway(GatewayConfig config);
  ~Gateway();  ///< stop()s.

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Stop the listener (closing client connections), then the prober and
  /// the shard pools. Does not touch the shards themselves. Idempotent.
  void stop();

  /// Handle one decoded request exactly as a connection would (in-process
  /// embedding and tests; also the transport-independent core of the
  /// socket path).
  Response handle(const Request& request);

  /// Outcome of a membership admin op (join / retire). Admin races —
  /// retiring an unknown name, joining a name that is live on a different
  /// endpoint — report Status::kUnavailable rather than throwing: under
  /// dynamic membership they are races with other operators, not config
  /// errors.
  struct AdminResult {
    Status status = Status::kOk;
    std::string message;
    std::uint64_t ring_version = 0;  ///< ring version after the op
    std::size_t sessions_moved = 0;  ///< join: sessions whose owner changed
  };

  /// Admit a shard into the ring at runtime — a brand-new name, a rejoin
  /// of a retired one (possibly on a new endpoint), or an idempotent
  /// repeat of a live one. The spec runs the same validation as startup
  /// shards (throws ccd::ConfigError; the kJoin frame path reports it as
  /// a status). On success the ring version is bumped and only the
  /// sessions whose ring owner changed are moved (export on the old
  /// owner, restore on the new one); campaigns continue bitwise.
  AdminResult admit_shard(const ShardSpec& spec);

  /// Operator-driven graceful leave: `name` should have drained and
  /// checkpointed (its daemon stopped); its sessions are handed off to
  /// the surviving shards. Idempotent: retiring an already-retired shard
  /// is kOk, an unknown name reports kUnavailable (a race, not an error).
  AdminResult retire_shard(const std::string& name);

  /// Name of the shard a session id currently routes to (tests/tools).
  /// Throws ccd::ConfigError when no shard is alive.
  std::string shard_for(const std::string& session) const;

  /// Current routing-table version (bumped by every failover, join, and
  /// retire). Exposed for ring-ownership accounting in tests.
  std::uint64_t ring_version() const {
    return ring_version_.load(std::memory_order_acquire);
  }

  std::size_t alive_shard_count() const;
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// Bound TCP port (resolved when config asked for port 0); -1 when the
  /// TCP listener is disabled.
  int tcp_port() const;

 private:
  struct Shard;

  void prober_loop();

  void rebuild_ring_locked();
  /// Current ring owner for a session id; nullptr when no shard is alive
  /// (a transient outage — callers answer Status::kUnavailable).
  Shard* route(const std::string& session) const;
  /// Stable raw pointers to every shard (shards are created-only; the
  /// vector may grow concurrently under admit_shard, so iteration goes
  /// through this lock-protected copy).
  std::vector<Shard*> shard_snapshot() const;
  Shard* find_shard(const std::string& name) const;
  util::Socket acquire(Shard& shard);
  void release(Shard& shard, util::Socket socket);
  util::Socket dial(Shard& shard);
  /// One synchronous request/response on a pooled shard connection.
  Response roundtrip(Shard& shard, const Request& request);

  Response forward(const Request& request);
  Response local_health();
  /// kHealth roundtrip; caches the result on the shard. False on failure.
  bool probe_shard(Shard& shard);
  void broadcast_shutdown();
  /// Declare a shard dead and hand its checkpointed sessions to the
  /// survivors. Serialized by failover_mutex_; concurrent detections of
  /// the same death collapse into one failover.
  void on_shard_down(Shard& shard, const std::string& reason);
  void handoff_locked(Shard& dead);
  /// Move one session between shards (kExport old owner, kRestore new
  /// owner). Failover-mutex holder only. Throws on failure after trying
  /// to put the exported session back.
  void move_session_locked(const std::string& id, Shard& from, Shard& to);
  /// Last-resort routing repair: a session answering "no open session" at
  /// its ring owner may be stranded on another shard (e.g. an open that
  /// raced a membership change). Scan the other live shards and pull it
  /// to the current ring owner. Returns true when found and moved.
  bool recover_stray(const std::string& session);

  GatewayConfig config_;
  mutable std::mutex shards_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex ring_mutex_;
  std::map<std::uint64_t, Shard*> ring_;
  /// Bumped after each completed failover / join / retire; forwards use
  /// it to tell a genuinely unknown session from one that just moved.
  std::atomic<std::uint64_t> ring_version_{0};
  /// True while a join/failover is re-homing sessions: forwards treat
  /// "no open session" as retryable and serialize behind failover_mutex_
  /// so every in-flight request lands exactly once on the new owner.
  std::atomic<bool> rebalance_active_{false};
  std::mutex failover_mutex_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> internal_request_id_{1};
  std::atomic<std::size_t> inflight_{0};

  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
  std::thread prober_;

  /// The socket front end; built last, stopped first.
  std::unique_ptr<Server> server_;
};

}  // namespace ccd::serve
