// Minimal RAII wrapper over POSIX stream sockets (Unix-domain and
// loopback TCP) — the transport under the serve subsystem.
//
// Scope is deliberately narrow: blocking stream sockets, EINTR-retrying
// exact reads/writes, and a poll()-based accept with timeout so accept
// loops can observe a stop flag without signals or self-pipes. Failures
// surface as ccd::DataError (transport problems are environmental, like
// file I/O); a clean peer close is not an error — recv_exact reports it
// as `false` when it happens on a message boundary.
//
// TCP listeners bind 127.0.0.1 by default; binding another address is an
// explicit opt-in via the host overload, because exposure beyond loopback
// requires the serve layer's token handshake (peer_is_loopback() is the
// predicate that gate keys on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ccd::util {

class Socket {
 public:
  /// An empty (invalid) socket; valid() is false.
  Socket() = default;
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Bind + listen on a Unix-domain socket at `path`. An existing socket
  /// file at `path` is unlinked first (stale leftovers from a killed
  /// daemon must not block restart).
  static Socket listen_unix(const std::string& path, int backlog = 64);

  /// Bind + listen on loopback TCP. `port` 0 picks an ephemeral port
  /// (read it back via local_port()).
  static Socket listen_tcp(int port, int backlog = 64);

  /// Bind + listen on an explicit IPv4 address (e.g. "0.0.0.0" to accept
  /// remote clients — pair with a serve-layer auth token).
  static Socket listen_tcp(const std::string& host, int port,
                           int backlog = 64);

  static Socket connect_unix(const std::string& path);
  static Socket connect_tcp(const std::string& host, int port);

  /// Wait up to `timeout_ms` for a pending connection; nullopt on timeout.
  /// Throws ccd::DataError on listener failure.
  std::optional<Socket> accept(int timeout_ms);

  /// Write the whole buffer (EINTR-retrying). Throws ccd::DataError on
  /// failure (including peer reset).
  void send_all(const void* data, std::size_t size);

  /// Read exactly `size` bytes. Returns false on a clean EOF before the
  /// first byte (peer closed between messages); throws ccd::DataError on
  /// mid-buffer EOF or any transport error.
  bool recv_exact(void* data, std::size_t size);

  /// Deadline variant of send_all: the whole buffer must be written within
  /// `timeout_ms` (overall budget, not per-chunk). A peer that stops
  /// draining its receive buffer surfaces as ccd::DataError instead of
  /// blocking forever. `timeout_ms <= 0` means no deadline.
  void write_exact(const void* data, std::size_t size, int timeout_ms);

  /// Deadline variant of recv_exact: all `size` bytes must arrive within
  /// `timeout_ms` (overall budget). Same clean-EOF/false contract as
  /// recv_exact; a timeout throws ccd::DataError. `timeout_ms <= 0` means
  /// no deadline.
  bool read_exact(void* data, std::size_t size, int timeout_ms);

  /// Shut down both directions (wakes a peer blocked in recv). Safe on an
  /// already-closed socket.
  void shutdown_both();

  bool valid() const { return fd_ >= 0; }

  /// Bound port of a TCP listener (0 for Unix-domain sockets).
  int local_port() const;

  /// True when the connected peer cannot be a remote host: Unix-domain
  /// sockets and TCP peers in 127.0.0.0/8 (or the IPv6 loopback /
  /// v4-mapped equivalent). Unknown address families report false so the
  /// auth gate fails closed.
  bool peer_is_loopback() const;

 private:
  explicit Socket(int fd) : fd_(fd) {}
  static Socket listen_tcp_addr(std::uint32_t bind_addr_be, int port,
                                int backlog, const std::string& what);
  void close_fd();

  int fd_ = -1;
};

}  // namespace ccd::util
