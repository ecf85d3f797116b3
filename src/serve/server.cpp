#include "serve/server.hpp"

#include <unistd.h>

#include <atomic>
#include <mutex>
#include <utility>

#include "util/error.hpp"

namespace ccd::serve {

namespace {
/// Accept poll granularity: how quickly stop() is observed.
constexpr int kAcceptPollMs = 200;
}  // namespace

void ServerConfig::validate() const {
  require_config(!unix_socket.empty() || tcp_port >= 0,
                 "server needs a unix socket path or a tcp port");
}

struct Server::Connection {
  util::Socket socket;
  /// Accepted on the Unix listener: the token handshake is never required
  /// there (filesystem permissions are the access control).
  bool via_unix = false;
  /// Serializes response frames: the engine answers from executor threads
  /// concurrently and frames must never interleave on the stream.
  std::mutex write_mutex;
  std::atomic<bool> finished{false};
};

Server::Server(ServerConfig config, RequestHandler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  config_.validate();
  if (!config_.unix_socket.empty()) {
    unix_listener_ = util::Socket::listen_unix(config_.unix_socket);
  }
  if (config_.tcp_port >= 0) {
    tcp_listener_ =
        util::Socket::listen_tcp(config_.tcp_host, config_.tcp_port);
    tcp_port_ = tcp_listener_.local_port();
  }
  if (unix_listener_.valid()) {
    accept_threads_.emplace_back([this] { accept_loop(&unix_listener_); });
  }
  if (tcp_listener_.valid()) {
    accept_threads_.emplace_back([this] { accept_loop(&tcp_listener_); });
  }
}

Server::Server(ServerConfig config, Engine& engine)
    : Server(std::move(config),
             [&engine](Request request, std::function<void(Response)> respond) {
               engine.submit(std::move(request), std::move(respond));
             }) {}

Server::~Server() { stop(); }

void Server::accept_loop(util::Socket* listener) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::optional<util::Socket> accepted;
    try {
      accepted = listener->accept(kAcceptPollMs);
    } catch (const ccd::Error&) {
      // Listener torn down (stop()) or transient failure; exit when
      // stopping, otherwise keep serving.
      if (stopping_.load(std::memory_order_relaxed)) return;
      continue;
    }
    if (!accepted) continue;  // poll timeout

    auto connection = std::make_shared<Connection>();
    connection->socket = std::move(*accepted);
    connection->via_unix = (listener == &unix_listener_);
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    reap_finished_handlers_locked();
    Handler handler;
    handler.connection = connection;
    handler.thread =
        std::thread([this, connection] { handle_connection(connection); });
    handlers_.push_back(std::move(handler));
  }
}

void Server::handle_connection(std::shared_ptr<Connection> connection) {
  AuthGate gate;
  gate.token = config_.auth_token;
  // Unix sockets are guarded by filesystem permissions and loopback TCP
  // is trusted by default; everything else must prove the token (when one
  // is configured). require_auth extends the gate to loopback TCP.
  gate.require = !gate.token.empty() && !connection->via_unix &&
                 (config_.require_auth ||
                  !connection->socket.peer_is_loopback());
  try {
    for (;;) {
      const std::optional<std::string> payload = recv_message(
          connection->socket, config_.idle_timeout_ms, config_.io_timeout_ms);
      if (!payload) break;  // clean peer close
      Request request = decode_request(*payload);
      bool close_connection = false;
      if (const std::optional<Response> intercepted =
              auth_intercept(gate, request, close_connection)) {
        const std::string encoded = encode_response(*intercepted);
        std::lock_guard<std::mutex> lock(connection->write_mutex);
        send_message(connection->socket, encoded, config_.io_timeout_ms);
        if (close_connection) break;
        continue;
      }
      // The response callback may fire on an executor thread long after
      // this loop moved on (pipelining) — the shared_ptr keeps the
      // connection alive until the last pending response is written.
      const int io_timeout_ms = config_.io_timeout_ms;
      handler_(std::move(request),
               [connection, io_timeout_ms](Response response) {
        try {
          const std::string encoded = encode_response(response);
          std::lock_guard<std::mutex> lock(connection->write_mutex);
          send_message(connection->socket, encoded, io_timeout_ms);
        } catch (const ccd::Error&) {
          // Peer gone or stalled mid-response. A timeout may have left a
          // partial frame on the stream, so the connection is unusable:
          // shut it down to unblock the read loop too.
          connection->socket.shutdown_both();
        }
      });
    }
  } catch (const ccd::Error&) {
    // Corrupt frame or transport failure: framing is unrecoverable on a
    // byte stream, drop the connection.
  }
  connection->socket.shutdown_both();
  connection->finished.store(true, std::memory_order_release);
}

void Server::reap_finished_handlers_locked() {
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (it->connection->finished.load(std::memory_order_acquire)) {
      it->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  // Wake the accept loops, then the connection read loops.
  unix_listener_.shutdown_both();
  tcp_listener_.shutdown_both();
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();

  std::vector<Handler> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    handlers.swap(handlers_);
  }
  for (Handler& handler : handlers) {
    handler.connection->socket.shutdown_both();
    handler.thread.join();
  }
  if (!config_.unix_socket.empty()) {
    ::unlink(config_.unix_socket.c_str());
  }
}

}  // namespace ccd::serve
