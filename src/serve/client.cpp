#include "serve/client.hpp"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace ccd::serve {

namespace {
util::metrics::Counter& reconnects_counter() {
  static util::metrics::Counter& c =
      util::metrics::registry().counter("ccd.serve.client.reconnects");
  return c;
}
}  // namespace

Client::Client(util::Socket socket, Target target, ClientOptions options)
    : socket_(std::move(socket)),
      target_(std::move(target)),
      options_(options) {}

Client Client::connect_unix(const std::string& path, ClientOptions options) {
  Target target;
  target.unix_domain = true;
  target.path_or_host = path;
  util::Socket socket = util::Socket::connect_unix(path);
  client_handshake(socket, options.auth_token, options.io_timeout_ms);
  return Client(std::move(socket), std::move(target), options);
}

Client Client::connect_tcp(const std::string& host, int port,
                           ClientOptions options) {
  Target target;
  target.unix_domain = false;
  target.path_or_host = host;
  target.port = port;
  util::Socket socket = util::Socket::connect_tcp(host, port);
  client_handshake(socket, options.auth_token, options.io_timeout_ms);
  return Client(std::move(socket), std::move(target), options);
}

util::Socket Client::dial() const {
  util::Socket socket =
      target_.unix_domain
          ? util::Socket::connect_unix(target_.path_or_host)
          : util::Socket::connect_tcp(target_.path_or_host, target_.port);
  // Re-run the token handshake on every redial: authentication is
  // per-connection (each connection gets a fresh server nonce).
  client_handshake(socket, options_.auth_token, options_.io_timeout_ms);
  return socket;
}

Response Client::call(const Request& request) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      if (!socket_.valid()) {
        socket_ = dial();
        if (attempt > 0) reconnects_counter().add(1);
      }
      send_message(socket_, encode_request(request), options_.io_timeout_ms);
      std::optional<std::string> payload =
          recv_message(socket_, 0, options_.io_timeout_ms);
      if (!payload) {
        throw DataError("server closed the connection before responding");
      }
      Response response = decode_response(*payload);
      if (response.request_id != request.request_id) {
        throw DataError("response correlation mismatch (sent " +
                        std::to_string(request.request_id) + ", got " +
                        std::to_string(response.request_id) + ")");
      }
      return response;
    } catch (const DataError&) {
      // Transport or framing failure: the stream is unusable. Drop the
      // connection and (within budget) back off, redial, and reissue —
      // at-least-once semantics, see the header comment.
      socket_ = util::Socket();
      if (attempt >= options_.max_reconnects) throw;
      const double delay_s =
          options_.reconnect_backoff_s *
          std::pow(options_.reconnect_multiplier, static_cast<double>(attempt));
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
    }
  }
}

Response Client::roundtrip(Request request) {
  request.request_id = next_request_id_++;
  return call(request);
}

namespace {
/// Throw the mapped error class unless the status is in `tolerated`.
void check(const Response& response) {
  if (is_error(response.status)) {
    throw_status(response.status, response.message);
  }
}
}  // namespace

std::string Client::ping() {
  Request request;
  request.op = Op::kPing;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.text;
}

SessionStatus Client::open(const std::string& session,
                           const OpenParams& params,
                           std::uint32_t deadline_ms) {
  Request request;
  request.op = Op::kOpen;
  request.session = session;
  request.open = params;
  request.deadline_ms = deadline_ms;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.session;
}

Client::AdvanceResult Client::advance(const std::string& session,
                                      std::uint64_t rounds,
                                      std::uint32_t deadline_ms) {
  Request request;
  request.op = Op::kAdvance;
  request.session = session;
  request.advance_rounds = rounds;
  request.deadline_ms = deadline_ms;
  Response response = roundtrip(std::move(request));
  if (response.status != Status::kDeadline &&
      response.status != Status::kBackpressure &&
      response.status != Status::kUnavailable) {
    check(response);
  }
  AdvanceResult result;
  result.session = response.session;
  result.deadline_expired = response.status == Status::kDeadline;
  result.backpressure = response.status == Status::kBackpressure;
  result.unavailable = response.status == Status::kUnavailable;
  return result;
}

std::vector<contract::Contract> Client::contracts(const std::string& session,
                                                  std::uint32_t deadline_ms) {
  Request request;
  request.op = Op::kContracts;
  request.session = session;
  request.deadline_ms = deadline_ms;
  Response response = roundtrip(std::move(request));
  check(response);
  return std::move(response.contracts);
}

SessionStatus Client::status(const std::string& session,
                             std::uint32_t deadline_ms) {
  Request request;
  request.op = Op::kStatus;
  request.session = session;
  request.deadline_ms = deadline_ms;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.session;
}

SessionStatus Client::close_session(const std::string& session,
                                    std::uint32_t deadline_ms) {
  Request request;
  request.op = Op::kClose;
  request.session = session;
  request.deadline_ms = deadline_ms;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.session;
}

std::string Client::metrics(bool prometheus) {
  Request request;
  request.op = Op::kMetrics;
  request.metrics_prometheus = prometheus;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.text;
}

HealthInfo Client::health() {
  Request request;
  request.op = Op::kHealth;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.health;
}

void Client::shutdown_server() {
  Request request;
  request.op = Op::kShutdown;
  Response response = roundtrip(std::move(request));
  check(response);
}

std::string Client::join_shard(const ShardTarget& shard) {
  Request request;
  request.op = Op::kJoin;
  request.shard = shard;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.text;
}

std::string Client::retire_shard(const std::string& name) {
  Request request;
  request.op = Op::kRetire;
  request.shard.name = name;
  Response response = roundtrip(std::move(request));
  check(response);
  return response.text;
}

}  // namespace ccd::serve
