// Socket front end of the serve layer: the listeners, accept loop,
// connection threads and token gate that `ccdd` (over its engine),
// `ccd-gateway` (over its router) and in-process tests/benches run.
//
// One thread accepts per listener (poll-based, so stop() is observed
// within kAcceptPollMs without signals); each connection gets a handler
// thread that reads framed requests, runs them through the auth gate and
// passes them to the request handler. Responses are written under a
// per-connection mutex — the engine may answer out of executor threads
// concurrently, and frames must never interleave. Request pipelining
// falls out naturally: a client may send several requests before reading
// responses; each response carries the echoed request_id for correlation.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "util/socket.hpp"

namespace ccd::serve {

struct ServerConfig {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::string unix_socket;
  /// TCP port; negative disables, 0 picks an ephemeral port.
  int tcp_port = -1;
  /// IPv4 address the TCP listener binds. The loopback default keeps the
  /// daemon private to the host; binding wider pairs with auth_token.
  std::string tcp_host = "127.0.0.1";
  /// Shared secret for the CSRV v3 token handshake. When set, non-loopback
  /// TCP peers must authenticate before any other op. Empty disables.
  std::string auth_token;
  /// Require the handshake on every TCP connection, loopback included
  /// (deployments where localhost is not trusted; also the testable knob).
  bool require_auth = false;
  /// Per-transfer deadline once a frame has started (header mid-read,
  /// payload bytes, or an outbound response): a half-dead peer can pin a
  /// handler thread at most this long before only its connection is
  /// dropped. <= 0 disables.
  int io_timeout_ms = 10'000;
  /// Idle deadline between frames: how long a connected-but-silent client
  /// may hold its handler thread. <= 0 (default) keeps connections open
  /// indefinitely — idle clients are cheap; stalled transfers are not.
  int idle_timeout_ms = 0;

  void validate() const;
};

/// Answers one request by calling `respond` exactly once, before returning
/// or later from another thread (the connection keeps reading meanwhile).
using RequestHandler =
    std::function<void(Request request, std::function<void(Response)> respond)>;

class Server {
 public:
  /// Binds listeners immediately (so callers can read tcp_port() at once)
  /// and starts accepting; every request that passes the token gate goes
  /// to `handler`. Throws ccd::ConfigError / ccd::DataError on bad config
  /// or bind failure.
  Server(ServerConfig config, RequestHandler handler);
  /// Serves `engine`: each request goes to Engine::submit.
  Server(ServerConfig config, Engine& engine);
  ~Server();  ///< stop()s.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stop accepting, close all connections, join handler threads. Does
  /// NOT stop the engine behind the handler (the owner decides when to
  /// drain it). Idempotent.
  void stop();

  /// Bound TCP port (resolved when config asked for port 0); -1 when the
  /// TCP listener is disabled.
  int tcp_port() const { return tcp_port_; }

 private:
  struct Connection;
  struct Handler {
    std::thread thread;
    std::shared_ptr<Connection> connection;
  };

  void accept_loop(util::Socket* listener);
  void handle_connection(std::shared_ptr<Connection> connection);
  void reap_finished_handlers_locked();

  ServerConfig config_;
  RequestHandler handler_;
  util::Socket unix_listener_;
  util::Socket tcp_listener_;
  int tcp_port_ = -1;

  std::atomic<bool> stopping_{false};
  std::vector<std::thread> accept_threads_;

  std::mutex handlers_mutex_;
  std::vector<Handler> handlers_;
};

}  // namespace ccd::serve
