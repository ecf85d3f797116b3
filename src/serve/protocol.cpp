#include "serve/protocol.hpp"

#include <utility>

#include "core/checkpoint.hpp"
#include "util/atomic_file.hpp"
#include "util/auth.hpp"
#include "util/fault_injection.hpp"
#include "util/socket.hpp"
#include "util/wire.hpp"

namespace ccd::serve {

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kOpen: return "open";
    case Op::kAdvance: return "advance";
    case Op::kIngest: return "ingest";
    case Op::kContracts: return "contracts";
    case Op::kStatus: return "status";
    case Op::kClose: return "close";
    case Op::kMetrics: return "metrics";
    case Op::kShutdown: return "shutdown";
    case Op::kRestore: return "restore";
    case Op::kHealth: return "health";
    case Op::kAuth: return "auth";
    case Op::kJoin: return "join";
    case Op::kRetire: return "retire";
    case Op::kExport: return "export";
    case Op::kListSessions: return "list-sessions";
  }
  return "?";
}

Status status_for(const ccd::Error& error) {
  switch (error.code()) {
    case ErrorCode::kConfig: return Status::kConfigError;
    case ErrorCode::kData: return Status::kDataError;
    case ErrorCode::kMath: return Status::kMathError;
    case ErrorCode::kContract: return Status::kContractError;
    case ErrorCode::kDeadline: return Status::kDeadline;
    case ErrorCode::kAuth: return Status::kAuth;
    case ErrorCode::kGeneric: return Status::kGenericError;
  }
  return Status::kGenericError;
}

void throw_status(Status status, const std::string& message) {
  switch (status) {
    case Status::kConfigError: throw ConfigError(message);
    case Status::kDataError: throw DataError(message);
    case Status::kMathError: throw MathError(message);
    case Status::kContractError: throw ContractError(message);
    case Status::kDeadline: throw CancelledError(message);
    case Status::kBackpressure:
      throw Error("server backpressure: " + message);
    case Status::kShuttingDown:
      throw Error("server shutting down: " + message);
    case Status::kUnavailable:
      throw Error("service unavailable: " + message);
    case Status::kAuth: throw AuthError(message);
    case Status::kOk:
    case Status::kGenericError:
      throw Error(message);
  }
  throw Error(message);
}

namespace {

Op decode_op(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(Op::kListSessions)) {
    throw DataError("unknown serve op " + std::to_string(raw));
  }
  return static_cast<Op>(raw);
}

Status decode_status(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(Status::kAuth)) {
    throw DataError("unknown serve status " + std::to_string(raw));
  }
  return static_cast<Status>(raw);
}

SessionMode decode_mode(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(SessionMode::kIngest)) {
    throw DataError("unknown session mode " + std::to_string(raw));
  }
  return static_cast<SessionMode>(raw);
}

policy::Kind decode_policy(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(policy::Kind::kPostedPrice)) {
    throw DataError("unknown policy backend " + std::to_string(raw));
  }
  return static_cast<policy::Kind>(raw);
}

void encode_session_status(util::wire::Writer& w, const SessionStatus& s) {
  w.u64(s.next_round);
  w.u64(s.rounds);
  w.u64(s.workers);
  w.f64(s.cumulative_requester_utility);
  w.u8(s.finished ? 1 : 0);
}

SessionStatus decode_session_status(util::wire::Reader& r) {
  SessionStatus s;
  s.next_round = r.u64();
  s.rounds = r.u64();
  s.workers = r.u64();
  s.cumulative_requester_utility = r.f64();
  s.finished = r.u8() != 0;
  return s;
}

}  // namespace

std::string encode_request(const Request& request) {
  util::wire::Writer w;
  w.u8(static_cast<std::uint8_t>(request.op));
  w.u64(request.request_id);
  w.str(request.session);
  w.u32(request.deadline_ms);
  w.u8(static_cast<std::uint8_t>(request.open.mode));
  w.u64(request.open.rounds);
  w.u64(request.open.workers);
  w.u64(request.open.malicious);
  w.u64(request.open.seed);
  w.f64(request.open.mu);
  w.u64(request.open.refit_every);
  w.f64(request.open.ema_alpha);
  w.u8(request.open.allow_existing ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(request.open.policy));
  w.u64(request.advance_rounds);
  w.u64(request.observations.size());
  for (const IngestObservation& obs : request.observations) {
    w.f64(obs.effort);
    w.f64(obs.feedback);
    w.f64(obs.accuracy_sample);
  }
  w.u8(request.metrics_prometheus ? 1 : 0);
  w.str(request.checkpoint_blob);
  w.str(request.auth_proof);
  w.str(request.shard.name);
  w.str(request.shard.unix_socket);
  w.str(request.shard.host);
  w.u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(request.shard.tcp_port)));
  w.str(request.shard.checkpoint_dir);
  return w.take();
}

Request decode_request(const std::string& payload) {
  util::wire::Reader r(payload);
  Request request;
  request.op = decode_op(r.u8());
  request.request_id = r.u64();
  request.session = r.str();
  request.deadline_ms = r.u32();
  request.open.mode = decode_mode(r.u8());
  request.open.rounds = r.u64();
  request.open.workers = r.u64();
  request.open.malicious = r.u64();
  request.open.seed = r.u64();
  request.open.mu = r.f64();
  request.open.refit_every = r.u64();
  request.open.ema_alpha = r.f64();
  request.open.allow_existing = r.u8() != 0;
  request.open.policy = decode_policy(r.u8());
  request.advance_rounds = r.u64();
  const std::size_t observations = r.count(24);
  request.observations.reserve(observations);
  for (std::size_t i = 0; i < observations; ++i) {
    IngestObservation obs;
    obs.effort = r.f64();
    obs.feedback = r.f64();
    obs.accuracy_sample = r.f64();
    request.observations.push_back(obs);
  }
  request.metrics_prometheus = r.u8() != 0;
  request.checkpoint_blob = r.str();
  request.auth_proof = r.str();
  request.shard.name = r.str();
  request.shard.unix_socket = r.str();
  request.shard.host = r.str();
  request.shard.tcp_port = static_cast<std::int32_t>(
      static_cast<std::int64_t>(r.u64()));
  request.shard.checkpoint_dir = r.str();
  r.finish();
  return request;
}

std::string encode_response(const Response& response) {
  util::wire::Writer w;
  w.u64(response.request_id);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.str(response.message);
  encode_session_status(w, response.session);
  w.u64(response.contracts.size());
  for (const contract::Contract& c : response.contracts) {
    core::encode_contract(w, c);
  }
  w.str(response.text);
  w.u8(response.redesigned ? 1 : 0);
  w.u64(response.health.sessions_open);
  w.u64(response.health.max_sessions);
  w.u64(response.health.queue_depth);
  w.u64(response.health.queue_capacity);
  w.u8(response.health.draining ? 1 : 0);
  w.str(response.checkpoint_blob);
  w.u64(response.session_ids.size());
  for (const std::string& id : response.session_ids) w.str(id);
  return w.take();
}

Response decode_response(const std::string& payload) {
  util::wire::Reader r(payload);
  Response response;
  response.request_id = r.u64();
  response.status = decode_status(r.u8());
  response.message = r.str();
  response.session = decode_session_status(r);
  const std::size_t contracts = r.count(8);
  response.contracts.reserve(contracts);
  for (std::size_t i = 0; i < contracts; ++i) {
    response.contracts.push_back(core::decode_contract(r));
  }
  response.text = r.str();
  response.redesigned = r.u8() != 0;
  response.health.sessions_open = r.u64();
  response.health.max_sessions = r.u64();
  response.health.queue_depth = r.u64();
  response.health.queue_capacity = r.u64();
  response.health.draining = r.u8() != 0;
  response.checkpoint_blob = r.str();
  const std::size_t session_ids = r.count(8);
  response.session_ids.reserve(session_ids);
  for (std::size_t i = 0; i < session_ids; ++i) {
    response.session_ids.push_back(r.str());
  }
  r.finish();
  return response;
}

void send_message(util::Socket& socket, const std::string& payload,
                  int io_timeout_ms) {
  CCD_FAULT_POINT("serve.frame_write",
                  util::fnv1a64(payload.data(), payload.size()), DataError);
  const std::string frame =
      util::wire::encode_frame(kFrameTag, kProtocolVersion, payload);
  socket.write_exact(frame.data(), frame.size(), io_timeout_ms);
}

std::optional<std::string> recv_message(util::Socket& socket,
                                        int idle_timeout_ms,
                                        int io_timeout_ms) {
  char header_bytes[util::wire::kFrameHeaderSize];
  if (!socket.read_exact(header_bytes, sizeof(header_bytes),
                         idle_timeout_ms)) {
    return std::nullopt;
  }
  const util::wire::FrameHeader header = util::wire::decode_frame_header(
      std::string_view(header_bytes, sizeof(header_bytes)), kFrameTag,
      kProtocolVersion, kProtocolVersion, kMaxMessageBytes, "socket");
  CCD_FAULT_POINT("serve.frame_read", header.checksum, DataError);
  std::string payload(header.payload_size, '\0');
  if (header.payload_size > 0 &&
      !socket.read_exact(payload.data(), payload.size(), io_timeout_ms)) {
    throw DataError("peer closed between frame header and payload");
  }
  util::wire::verify_frame_payload(header, payload, "socket");
  return payload;
}

std::optional<Response> auth_intercept(AuthGate& gate, const Request& request,
                                       bool& close_connection) {
  close_connection = false;
  if (request.op == Op::kAuth) {
    Response response;
    response.request_id = request.request_id;
    if (request.auth_proof.empty()) {
      // Challenge request. An empty nonce tells the client the server has
      // no token configured, so there is nothing to prove.
      if (!gate.token.empty()) {
        gate.nonce = util::auth::make_nonce();
        response.text = gate.nonce;
      }
      return response;
    }
    // Proof. The outstanding nonce is consumed before verification, so a
    // second attempt (replay on this connection) never verifies, and a
    // proof captured from another connection is bound to that
    // connection's nonce.
    const std::string nonce = gate.nonce;
    gate.nonce.clear();
    if (gate.token.empty() || nonce.empty() ||
        !util::auth::constant_time_equal(
            request.auth_proof,
            util::auth::handshake_proof(gate.token, nonce))) {
      response.status = Status::kAuth;
      response.message = nonce.empty()
                             ? "authentication proof without a challenge"
                             : "authentication failed";
      close_connection = true;
      return response;
    }
    gate.authenticated = true;
    response.text = "authenticated";
    return response;
  }
  if (gate.require && !gate.authenticated) {
    Response response;
    response.request_id = request.request_id;
    response.status = Status::kAuth;
    response.message =
        "authentication required on non-loopback connections (token "
        "handshake, see serve/protocol.hpp)";
    close_connection = true;
    return response;
  }
  return std::nullopt;
}

void client_handshake(util::Socket& socket, const std::string& token,
                      int io_timeout_ms) {
  if (token.empty()) return;
  Request challenge;
  challenge.op = Op::kAuth;
  send_message(socket, encode_request(challenge), io_timeout_ms);
  auto payload = recv_message(socket, io_timeout_ms, io_timeout_ms);
  if (!payload) throw DataError("peer closed during auth challenge");
  Response response = decode_response(*payload);
  if (is_error(response.status)) {
    throw_status(response.status, response.message);
  }
  if (response.text.empty()) return;  // server has no token configured

  Request proof;
  proof.op = Op::kAuth;
  proof.auth_proof = util::auth::handshake_proof(token, response.text);
  send_message(socket, encode_request(proof), io_timeout_ms);
  payload = recv_message(socket, io_timeout_ms, io_timeout_ms);
  if (!payload) throw AuthError("peer closed during auth proof");
  response = decode_response(*payload);
  if (is_error(response.status)) {
    throw_status(response.status, response.message);
  }
}

}  // namespace ccd::serve
