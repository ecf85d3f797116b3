// serve::Server + serve::Client over real sockets: protocol codec round
// trips, Unix-domain and loopback-TCP transport, concurrent sessions from
// concurrent connections (bitwise-identical to the simulator), corrupt
// frames dropping only the offending connection, and shutdown plumbing.
// Over a bare request handler: replies keep their request ids, deferred
// replies answer pipelined requests in any order, the token gate answers
// before the handler, a blocked handler stalls only its connection, and
// stop() does not wait for an outstanding reply.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/stackelberg.hpp"
#include "serve/client.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"

namespace ccd::serve {
namespace {

TEST(ProtocolCodecTest, RequestRoundTripsEveryField) {
  Request request;
  request.op = Op::kIngest;
  request.request_id = 77;
  request.session = "sess-1";
  request.deadline_ms = 1500;
  request.open.mode = SessionMode::kIngest;
  request.open.rounds = 9;
  request.open.workers = 4;
  request.open.malicious = 1;
  request.open.seed = 1234;
  request.open.mu = 1.25;
  request.open.refit_every = 6;
  request.open.ema_alpha = 0.4;
  request.open.allow_existing = true;
  request.open.policy = policy::Kind::kPostedPrice;
  request.advance_rounds = 3;
  request.observations = {{1.0, 9.5, 0.3}, {2.0, 14.0, 1.6}};
  request.metrics_prometheus = true;
  request.checkpoint_blob = std::string("SCKP\x00\x01raw\xff bytes", 15);

  const Request got = decode_request(encode_request(request));
  EXPECT_EQ(got.op, request.op);
  EXPECT_EQ(got.request_id, request.request_id);
  EXPECT_EQ(got.session, request.session);
  EXPECT_EQ(got.deadline_ms, request.deadline_ms);
  EXPECT_EQ(got.open.mode, request.open.mode);
  EXPECT_EQ(got.open.rounds, request.open.rounds);
  EXPECT_EQ(got.open.workers, request.open.workers);
  EXPECT_EQ(got.open.malicious, request.open.malicious);
  EXPECT_EQ(got.open.seed, request.open.seed);
  EXPECT_EQ(got.open.mu, request.open.mu);
  EXPECT_EQ(got.open.refit_every, request.open.refit_every);
  EXPECT_EQ(got.open.ema_alpha, request.open.ema_alpha);
  EXPECT_EQ(got.open.allow_existing, request.open.allow_existing);
  EXPECT_EQ(got.open.policy, request.open.policy);
  EXPECT_EQ(got.advance_rounds, request.advance_rounds);
  EXPECT_EQ(got.checkpoint_blob, request.checkpoint_blob);
  ASSERT_EQ(got.observations.size(), 2u);
  EXPECT_EQ(got.observations[1].effort, 2.0);
  EXPECT_EQ(got.observations[1].feedback, 14.0);
  EXPECT_EQ(got.observations[1].accuracy_sample, 1.6);
  EXPECT_EQ(got.metrics_prometheus, request.metrics_prometheus);
}

TEST(ProtocolCodecTest, ResponseRoundTripsContractsBitwise) {
  Response response;
  response.request_id = 9;
  response.status = Status::kDeadline;
  response.message = "deadline expired";
  response.session.next_round = 4;
  response.session.rounds = 10;
  response.session.workers = 2;
  response.session.cumulative_requester_utility = 123.456789;
  response.session.finished = false;
  response.redesigned = true;
  response.health.sessions_open = 3;
  response.health.max_sessions = 256;
  response.health.queue_depth = 7;
  response.health.queue_capacity = 128;
  response.health.draining = true;
  response.contracts.push_back(contract::Contract{});  // zero contract
  response.contracts.push_back(
      contract::Contract(0.5, {0.0, 1.5, 3.0}, {0.0, 0.25, 1.0}));

  const Response got = decode_response(encode_response(response));
  EXPECT_EQ(got.request_id, response.request_id);
  EXPECT_EQ(got.status, response.status);
  EXPECT_EQ(got.message, response.message);
  EXPECT_EQ(got.session.next_round, 4u);
  EXPECT_EQ(got.session.cumulative_requester_utility, 123.456789);
  EXPECT_TRUE(got.redesigned);
  EXPECT_EQ(got.health.sessions_open, 3u);
  EXPECT_EQ(got.health.max_sessions, 256u);
  EXPECT_EQ(got.health.queue_depth, 7u);
  EXPECT_EQ(got.health.queue_capacity, 128u);
  EXPECT_TRUE(got.health.draining);
  ASSERT_EQ(got.contracts.size(), 2u);
  EXPECT_TRUE(got.contracts[0].is_zero());
  ASSERT_FALSE(got.contracts[1].is_zero());
  EXPECT_EQ(got.contracts[1].intervals(), 2u);
  EXPECT_EQ(got.contracts[1].knot(1), 1.5);
  EXPECT_EQ(got.contracts[1].payment(2), 1.0);
}

// A server with no listener to bind is a ConfigError, thrown before any
// socket is created.
TEST(ServerConfigTest, NeedsAListenerOrThrowsConfigError) {
  EXPECT_THROW(ServerConfig{}.validate(), ConfigError);
  ServerConfig tcp;
  tcp.tcp_port = 0;
  EXPECT_NO_THROW(tcp.validate());
  ServerConfig unix_domain;
  unix_domain.unix_socket = "s.sock";
  EXPECT_NO_THROW(unix_domain.validate());
}

TEST(ProtocolCodecTest, MalformedPayloadsThrowDataError) {
  const std::string encoded = encode_request(Request{});
  EXPECT_THROW(decode_request(encoded.substr(0, encoded.size() / 2)),
               DataError);
  EXPECT_THROW(decode_request(encoded + "trailing"), DataError);
  std::string bad_op = encoded;
  bad_op[0] = '\x7F';
  EXPECT_THROW(decode_request(bad_op), DataError);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ccd_server_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    socket_path_ = (dir_ / "ccdd.sock").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineConfig engine_config() {
    EngineConfig c;
    c.worker_threads = 4;
    return c;
  }

  std::filesystem::path dir_;
  std::string socket_path_;
};

TEST_F(ServerTest, UnixSocketSessionMatchesSimulatorBitwise) {
  constexpr std::uint64_t kRounds = 8;
  constexpr std::uint64_t kSeed = 21;
  Engine engine(engine_config());
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  Server server(sc, engine);

  Client client = Client::connect_unix(socket_path_);
  EXPECT_EQ(client.ping(), "ccd-serve/4");

  OpenParams open;
  open.rounds = kRounds;
  open.workers = 5;
  open.malicious = 2;
  open.seed = kSeed;
  client.open("wire", open);
  SessionStatus status;
  do {
    const Client::AdvanceResult step = client.advance("wire", 3);
    ASSERT_FALSE(step.deadline_expired);
    ASSERT_FALSE(step.backpressure);
    status = step.session;
  } while (!status.finished);

  core::SimConfig ref_config;
  ref_config.rounds = kRounds;
  ref_config.seed = kSeed;
  core::StackelbergSimulator ref(core::preset_fleet(5, 2), ref_config);
  const core::SimResult ref_result = ref.run();
  EXPECT_EQ(status.cumulative_requester_utility,
            ref_result.cumulative_requester_utility);

  const std::vector<contract::Contract> got = client.contracts("wire");
  const std::vector<contract::Contract>& expected = ref.contracts();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].is_zero(), expected[i].is_zero());
    if (got[i].is_zero()) continue;
    ASSERT_EQ(got[i].intervals(), expected[i].intervals());
    for (std::size_t l = 0; l <= got[i].intervals(); ++l) {
      EXPECT_EQ(got[i].knot(l), expected[i].knot(l));
      EXPECT_EQ(got[i].payment(l), expected[i].payment(l));
    }
  }
  client.close_session("wire");
  EXPECT_THROW(client.status("wire"), ConfigError);
}

TEST_F(ServerTest, EphemeralTcpPortServes) {
  Engine engine(engine_config());
  ServerConfig sc;
  sc.tcp_port = 0;  // ephemeral
  Server server(sc, engine);
  ASSERT_GT(server.tcp_port(), 0);

  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_EQ(client.ping(), "ccd-serve/4");
  const std::string metrics = client.metrics(true);
  EXPECT_NE(metrics.find("ccd_serve_responses"), std::string::npos);
}

TEST_F(ServerTest, ConcurrentConnectionsDriveIndependentSessions) {
  constexpr std::size_t kSessions = 6;
  constexpr std::uint64_t kRounds = 6;
  Engine engine(engine_config());
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  Server server(sc, engine);

  std::vector<double> utilities(kSessions, 0.0);
  std::vector<std::thread> drivers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&, s] {
      Client client = Client::connect_unix(socket_path_);
      OpenParams open;
      open.rounds = kRounds;
      open.workers = 4;
      open.malicious = 1;
      open.seed = 100 + s;
      client.open("conc-" + std::to_string(s), open);
      SessionStatus status;
      do {
        const Client::AdvanceResult step =
            client.advance("conc-" + std::to_string(s), 1);
        if (step.backpressure) continue;
        status = step.session;
      } while (!status.finished);
      utilities[s] = status.cumulative_requester_utility;
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(engine.session_count(), kSessions);

  // Each concurrent session reproduced its solo-simulator trajectory.
  for (std::size_t s = 0; s < kSessions; ++s) {
    core::SimConfig ref_config;
    ref_config.rounds = kRounds;
    ref_config.seed = 100 + s;
    core::StackelbergSimulator ref(core::preset_fleet(4, 1), ref_config);
    EXPECT_EQ(utilities[s], ref.run().cumulative_requester_utility)
        << "session " << s;
  }
}

TEST_F(ServerTest, CorruptFrameDropsOnlyThatConnection) {
  Engine engine(engine_config());
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  Server server(sc, engine);

  // A garbage blob instead of a frame: the server closes this connection.
  util::Socket raw = util::Socket::connect_unix(socket_path_);
  const std::string garbage(64, 'x');
  raw.send_all(garbage.data(), garbage.size());
  char byte = 0;
  EXPECT_FALSE(raw.recv_exact(&byte, 1));  // clean close, no response

  // Other connections are unaffected.
  Client client = Client::connect_unix(socket_path_);
  EXPECT_EQ(client.ping(), "ccd-serve/4");
}

TEST_F(ServerTest, ShutdownRequestReachesTheEngine) {
  Engine engine(engine_config());
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  Server server(sc, engine);

  Client client = Client::connect_unix(socket_path_);
  EXPECT_FALSE(engine.shutdown_requested());
  client.shutdown_server();
  EXPECT_TRUE(engine.shutdown_requested());

  server.stop();
  engine.stop();
  // The socket file is gone after a clean stop.
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
}

/// Server over a bare request handler (the form ccd-gateway listens
/// through): every request past the token gate reaches the handler, which
/// answers inline or later from a thread the server does not own.
class ServerHandlerTest : public ServerTest {
 protected:
  /// An ok reply to `request` carrying `text` under the request's id.
  static Response reply(const Request& request, std::string text) {
    Response response;
    response.request_id = request.request_id;
    response.text = std::move(text);
    return response;
  }

  static Request status_request(std::uint64_t id, std::string session) {
    Request request;
    request.op = Op::kStatus;
    request.request_id = id;
    request.session = std::move(session);
    return request;
  }
};

TEST_F(ServerHandlerTest, HandlerAnswersEachRequestUnderItsId) {
  std::mutex mutex;
  std::vector<Op> seen;
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  Server server(sc, [&](Request request,
                        std::function<void(Response)> respond) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      seen.push_back(request.op);
    }
    respond(reply(request, "echo:" + request.session));
  });

  Client client = Client::connect_unix(socket_path_);
  const std::uint64_t ids[] = {7, 8, 42};
  for (const std::uint64_t id : ids) {
    const std::string session = "s" + std::to_string(id);
    const Response response = client.call(status_request(id, session));
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.text, "echo:" + session);
  }
  EXPECT_EQ(client.ping(), "echo:");
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(seen, (std::vector<Op>{Op::kStatus, Op::kStatus, Op::kStatus,
                                   Op::kPing}));
}

TEST_F(ServerHandlerTest, DeferredRepliesAnswerPipelinedRequestsInAnyOrder) {
  // The handler only parks each responder. The connection keeps reading,
  // so both pipelined requests arrive before either is answered.
  std::mutex mutex;
  std::condition_variable arrived;
  std::vector<std::pair<Request, std::function<void(Response)>>> parked;
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  Server server(sc, [&](Request request,
                        std::function<void(Response)> respond) {
    std::lock_guard<std::mutex> lock(mutex);
    parked.emplace_back(std::move(request), std::move(respond));
    arrived.notify_all();
  });

  util::Socket raw = util::Socket::connect_unix(socket_path_);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    send_message(raw, encode_request(status_request(id, "pipelined")));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(arrived.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return parked.size() == 2; }));
  }

  // Answer the later request first, from a thread the server does not own.
  std::thread answerer([&] {
    std::lock_guard<std::mutex> lock(mutex);
    for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
      it->second(reply(it->first, "late"));
    }
  });
  answerer.join();
  const std::uint64_t reply_order[] = {2, 1};
  for (const std::uint64_t id : reply_order) {
    const std::optional<std::string> payload =
        recv_message(raw, 10'000, 10'000);
    ASSERT_TRUE(payload.has_value());
    const Response response = decode_response(*payload);
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.text, "late");
  }
}

TEST_F(ServerHandlerTest, TokenGateAnswersBeforeTheHandler) {
  constexpr char kToken[] = "open-sesame";
  std::atomic<int> calls{0};
  ServerConfig sc;
  sc.tcp_port = 0;
  sc.auth_token = kToken;
  sc.require_auth = true;
  Server server(sc, [&](Request request,
                        std::function<void(Response)> respond) {
    calls.fetch_add(1);
    respond(reply(request, "handled"));
  });
  ASSERT_GT(server.tcp_port(), 0);

  // Refused by the gate: the handler never sees the request.
  Client anonymous = Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_THROW(anonymous.ping(), AuthError);
  EXPECT_EQ(calls.load(), 0);

  // The handshake frames are the gate's own; only the ping is handed on.
  ClientOptions options;
  options.auth_token = kToken;
  Client client =
      Client::connect_tcp("127.0.0.1", server.tcp_port(), options);
  EXPECT_EQ(client.ping(), "handled");
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(ServerHandlerTest, BlockedHandlerStallsOnlyItsOwnConnection) {
  // The handler runs on its connection's thread. The first request blocks
  // until the second, sent on another connection, has reached the
  // handler; with one thread for both it would time out instead.
  std::mutex mutex;
  std::condition_variable cv;
  bool first_waiting = false;
  bool second_arrived = false;
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  Server server(sc, [&](Request request,
                        std::function<void(Response)> respond) {
    std::unique_lock<std::mutex> lock(mutex);
    if (request.session == "first") {
      first_waiting = true;
      cv.notify_all();
      const bool released = cv.wait_for(lock, std::chrono::seconds(10),
                                        [&] { return second_arrived; });
      lock.unlock();
      respond(reply(request, released ? "released" : "timed out"));
      return;
    }
    second_arrived = true;
    cv.notify_all();
    lock.unlock();
    respond(reply(request, "second"));
  });

  std::string first_text;
  std::thread first([&] {
    Client client = Client::connect_unix(socket_path_);
    first_text = client.call(status_request(1, "first")).text;
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return first_waiting; }));
  }
  Client second = Client::connect_unix(socket_path_);
  EXPECT_EQ(second.call(status_request(1, "second")).text, "second");
  first.join();
  EXPECT_EQ(first_text, "released");
}

TEST_F(ServerHandlerTest, StopReturnsWithARequestUnanswered) {
  // A responder may outlive the server: stop() closes the connection
  // without waiting for the reply, and a late reply is dropped.
  std::mutex mutex;
  std::condition_variable arrived;
  Request parked_request;
  std::function<void(Response)> parked;
  ServerConfig sc;
  sc.unix_socket = socket_path_;
  auto server = std::make_unique<Server>(
      sc, [&](Request request, std::function<void(Response)> respond) {
        std::lock_guard<std::mutex> lock(mutex);
        parked_request = std::move(request);
        parked = std::move(respond);
        arrived.notify_all();
      });

  util::Socket raw = util::Socket::connect_unix(socket_path_);
  send_message(raw, encode_request(status_request(5, "unanswered")));
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(arrived.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return parked != nullptr; }));
  }

  server->stop();
  char byte = 0;
  EXPECT_FALSE(raw.read_exact(&byte, 1, 10'000));  // clean close, no reply
  EXPECT_NO_THROW(parked(reply(parked_request, "late")));
  server.reset();
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
}

}  // namespace
}  // namespace ccd::serve
