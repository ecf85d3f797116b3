#include "serve/gateway.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <utility>

#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"

namespace ccd::serve {

namespace metrics = util::metrics;

namespace {

/// Route-and-forward attempts per request. Each retry re-routes, so an
/// attempt after a failover lands on the session's new owner.
constexpr std::size_t kMaxForwardAttempts = 4;
constexpr const char* kBanner = "ccd-gateway/3";

/// All `ccd.gateway.*` instruments. The reconciliation invariant (tested
/// by bench_gateway_chaos): requests == responses, and
/// responses == local + backpressure + rejected
///              + (forwards - forward_retries) + forward_failures —
/// every admitted request is answered exactly once, and every answer is
/// attributable.
struct GatewayMetrics {
  metrics::Counter& requests;
  metrics::Counter& responses;
  metrics::Counter& local;
  metrics::Counter& backpressure;
  metrics::Counter& rejected;
  metrics::Counter& forwards;
  metrics::Counter& forward_retries;
  metrics::Counter& forward_failures;
  metrics::Counter& failovers;
  metrics::Counter& joins;
  metrics::Counter& sessions_handed_off;
  metrics::Counter& sessions_restored;
  metrics::Counter& handoff_failures;
  metrics::Counter& strays_recovered;
  metrics::Gauge& shards_alive;
  metrics::Gauge& inflight;
  metrics::Histogram& forward_us;

  static GatewayMetrics& instance() {
    static GatewayMetrics m = [] {
      metrics::MetricsRegistry& reg = metrics::registry();
      return GatewayMetrics{reg.counter("ccd.gateway.requests"),
                            reg.counter("ccd.gateway.responses"),
                            reg.counter("ccd.gateway.local"),
                            reg.counter("ccd.gateway.backpressure"),
                            reg.counter("ccd.gateway.rejected"),
                            reg.counter("ccd.gateway.forwards"),
                            reg.counter("ccd.gateway.forward_retries"),
                            reg.counter("ccd.gateway.forward_failures"),
                            reg.counter("ccd.gateway.failovers"),
                            reg.counter("ccd.gateway.joins"),
                            reg.counter("ccd.gateway.sessions_handed_off"),
                            reg.counter("ccd.gateway.sessions_restored"),
                            reg.counter("ccd.gateway.handoff_failures"),
                            reg.counter("ccd.gateway.strays_recovered"),
                            reg.gauge("ccd.gateway.shards_alive"),
                            reg.gauge("ccd.gateway.inflight"),
                            reg.histogram("ccd.gateway.forward_us")};
    }();
    return m;
  }
};

/// 64-bit finalizer (murmur3) on top of FNV-1a: FNV's high bits avalanche
/// poorly on short similar strings ("shard0#1" vs "shard1#1"), which
/// clusters ring points by shard instead of interleaving them. The mix
/// spreads them uniformly over the key space.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

std::uint64_t ring_hash(const std::string& key) {
  return mix64(util::fnv1a64(key.data(), key.size()));
}

}  // namespace

void ShardSpec::validate() const {
  if (name.empty()) throw ConfigError("every shard needs a name");
  if (unix_socket.empty() && tcp_port < 0) {
    throw ConfigError("shard '" + name +
                      "' needs a unix socket path or a tcp port");
  }
}

bool ShardSpec::same_target(const ShardSpec& other) const {
  return unix_socket == other.unix_socket && host == other.host &&
         tcp_port == other.tcp_port && checkpoint_dir == other.checkpoint_dir;
}

ShardSpec ShardSpec::parse(const std::string& text) {
  ShardSpec shard;
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw ConfigError("bad shard spec '" + text + "' (want NAME=TARGET)");
  }
  shard.name = text.substr(0, eq);
  std::string target = text.substr(eq + 1);
  const std::size_t at = target.rfind('@');
  if (at != std::string::npos) {
    shard.checkpoint_dir = target.substr(at + 1);
    target = target.substr(0, at);
  }
  if (target.rfind("unix:", 0) == 0) {
    shard.unix_socket = target.substr(5);
  } else if (target.rfind("tcp:", 0) == 0) {
    const std::string addr = target.substr(4);
    const std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
      throw ConfigError("bad shard spec '" + text + "' (want tcp:HOST:PORT)");
    }
    shard.host = addr.substr(0, colon);
    char* end = nullptr;
    shard.tcp_port =
        static_cast<int>(std::strtol(addr.c_str() + colon + 1, &end, 10));
    if (end == nullptr || *end != '\0' || shard.tcp_port < 0) {
      throw ConfigError("bad shard port in '" + text + "'");
    }
  } else {
    throw ConfigError("bad shard spec '" + text +
                      "' (target must start with unix: or tcp:)");
  }
  shard.validate();
  return shard;
}

ShardTarget ShardSpec::to_target() const {
  ShardTarget target;
  target.name = name;
  target.unix_socket = unix_socket;
  target.host = host;
  target.tcp_port = tcp_port;
  target.checkpoint_dir = checkpoint_dir;
  return target;
}

ShardSpec ShardSpec::from_target(const ShardTarget& target) {
  ShardSpec spec;
  spec.name = target.name;
  spec.unix_socket = target.unix_socket;
  spec.host = target.host.empty() ? "127.0.0.1" : target.host;
  spec.tcp_port = target.tcp_port;
  spec.checkpoint_dir = target.checkpoint_dir;
  return spec;
}

void GatewayConfig::validate() const {
  require_config(!shards.empty(), "gateway needs at least one shard");
  require_config(!unix_socket.empty() || tcp_port >= 0,
                 "gateway needs a unix socket path or a tcp port");
  require_config(max_inflight >= 1, "max_inflight must be >= 1");
  require_config(virtual_nodes >= 1, "virtual_nodes must be >= 1");
  connect_retry.validate();
  std::set<std::string> names;
  for (const ShardSpec& shard : shards) {
    shard.validate();
    if (!names.insert(shard.name).second) {
      throw ConfigError("duplicate shard name '" + shard.name + "'");
    }
  }
}

struct Gateway::Shard {
  ShardSpec spec;
  std::size_t index = 0;
  std::atomic<bool> alive{true};

  /// Idle connections to this shard, reused across forwards.
  std::mutex pool_mutex;
  std::vector<util::Socket> pool;

  /// Latest health probe result (prober thread or synchronous probe).
  std::mutex health_mutex;
  HealthInfo last_health;
  bool health_valid = false;
};

Gateway::Gateway(GatewayConfig config) : config_(std::move(config)) {
  config_.validate();
  GatewayMetrics& m = GatewayMetrics::instance();
  shards_.reserve(config_.shards.size());
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->spec = config_.shards[i];
    shard->index = i;
    shards_.push_back(std::move(shard));
  }
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    rebuild_ring_locked();
  }
  m.shards_alive.set(static_cast<double>(shards_.size()));

  if (config_.health_interval_ms > 0) {
    prober_ = std::thread([this] { prober_loop(); });
  }

  // Listen last: the server hands requests to handle() as soon as it
  // accepts. The gateway answers inline (it is I/O-bound; the shards own
  // the queues). A bind failure stops the prober before it propagates.
  ServerConfig server_config;
  server_config.unix_socket = config_.unix_socket;
  server_config.tcp_port = config_.tcp_port;
  server_config.auth_token = config_.auth_token;
  server_config.require_auth = config_.require_auth;
  server_config.io_timeout_ms = config_.io_timeout_ms;
  server_config.idle_timeout_ms = config_.idle_timeout_ms;
  try {
    server_ = std::make_unique<Server>(
        std::move(server_config),
        [this](Request request, std::function<void(Response)> respond) {
          respond(handle(request));
        });
  } catch (...) {
    stop();
    throw;
  }
}

Gateway::~Gateway() { stop(); }

int Gateway::tcp_port() const { return server_->tcp_port(); }

void Gateway::stop() {
  if (stopping_.exchange(true)) return;
  if (server_) server_->stop();
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();

  for (Shard* shard : shard_snapshot()) {
    std::lock_guard<std::mutex> lock(shard->pool_mutex);
    shard->pool.clear();
  }
}

// ---------------------------------------------------------------------------
// Routing: FNV-1a consistent-hash ring over the alive shards.

void Gateway::rebuild_ring_locked() {
  ring_.clear();
  for (Shard* shard : shard_snapshot()) {
    if (!shard->alive.load(std::memory_order_relaxed)) continue;
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v) {
      const std::string point = shard->spec.name + "#" + std::to_string(v);
      ring_[ring_hash(point)] = shard;
    }
  }
}

Gateway::Shard* Gateway::route(const std::string& session) const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  if (ring_.empty()) return nullptr;
  auto it = ring_.lower_bound(ring_hash(session));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::vector<Gateway::Shard*> Gateway::shard_snapshot() const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  std::vector<Shard*> snapshot;
  snapshot.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    snapshot.push_back(shard.get());
  }
  return snapshot;
}

Gateway::Shard* Gateway::find_shard(const std::string& name) const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->spec.name == name) return shard.get();
  }
  return nullptr;
}

std::string Gateway::shard_for(const std::string& session) const {
  Shard* shard = route(session);
  if (shard == nullptr) {
    throw ConfigError("no alive shard to route session '" + session + "'");
  }
  return shard->spec.name;
}

std::size_t Gateway::alive_shard_count() const {
  std::size_t alive = 0;
  for (Shard* shard : shard_snapshot()) {
    if (shard->alive.load(std::memory_order_relaxed)) ++alive;
  }
  return alive;
}

// ---------------------------------------------------------------------------
// Shard connections.

util::Socket Gateway::dial(Shard& shard) {
  return util::with_retry(
      "gateway.shard_connect", config_.connect_retry,
      [this, &shard](std::size_t attempt) {
        CCD_FAULT_POINT(
            "gateway.shard_connect",
            (static_cast<std::uint64_t>(shard.index) << 16) | attempt,
            DataError);
        util::Socket socket =
            shard.spec.unix_socket.empty()
                ? util::Socket::connect_tcp(shard.spec.host,
                                            shard.spec.tcp_port)
                : util::Socket::connect_unix(shard.spec.unix_socket);
        // Shards may require the same token the gateway's own clients use
        // (non-loopback TCP fleet); no-op when no token is configured.
        client_handshake(socket, config_.auth_token, config_.io_timeout_ms);
        return socket;
      });
}

util::Socket Gateway::acquire(Shard& shard) {
  {
    std::lock_guard<std::mutex> lock(shard.pool_mutex);
    if (!shard.pool.empty()) {
      util::Socket socket = std::move(shard.pool.back());
      shard.pool.pop_back();
      return socket;
    }
  }
  return dial(shard);
}

void Gateway::release(Shard& shard, util::Socket socket) {
  if (!socket.valid() || stopping_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(shard.pool_mutex);
  shard.pool.push_back(std::move(socket));
}

Response Gateway::roundtrip(Shard& shard, const Request& request) {
  // On any failure the connection is simply destroyed (not released):
  // a half-written frame makes it unusable.
  util::Socket connection = acquire(shard);
  send_message(connection, encode_request(request), config_.io_timeout_ms);
  const std::optional<std::string> payload = recv_message(
      connection, config_.forward_timeout_ms, config_.io_timeout_ms);
  if (!payload) {
    throw DataError("shard '" + shard.spec.name +
                    "' closed the connection mid-request");
  }
  Response response = decode_response(*payload);
  if (response.request_id != request.request_id) {
    throw DataError("shard '" + shard.spec.name +
                    "' response correlation mismatch (sent " +
                    std::to_string(request.request_id) + ", got " +
                    std::to_string(response.request_id) + ")");
  }
  release(shard, std::move(connection));
  return response;
}

// ---------------------------------------------------------------------------
// Request handling.

Response Gateway::forward(const Request& request) {
  GatewayMetrics& m = GatewayMetrics::instance();
  metrics::ScopedTimer timer(&m.forward_us);
  std::string failure = "no forward attempt made";
  bool tried_stray_recovery = false;
  for (std::size_t attempt = 0; attempt < kMaxForwardAttempts; ++attempt) {
    if (attempt > 0 || rebalance_active_.load(std::memory_order_acquire)) {
      // Barrier: wait out any in-progress failover or join rebalance so
      // the request routes on the post-handoff ring and the moved session
      // is already on its new owner.
      std::lock_guard<std::mutex> barrier(failover_mutex_);
    }
    const std::uint64_t ring_version =
        ring_version_.load(std::memory_order_acquire);
    Shard* shard = route(request.session);
    if (shard == nullptr) {
      // Every shard is down. That is a transient fleet outage, not a bad
      // request: report it retryable so clients back off and reissue once
      // a shard rejoins.
      m.forward_failures.add(1);
      Response response;
      response.status = Status::kUnavailable;
      response.message = "no alive shard to route session '" +
                         request.session + "' (retry after a shard rejoins)";
      return response;
    }
    try {
      m.forwards.add(1);
      Response response = roundtrip(*shard, request);
      if (response.status == Status::kConfigError &&
          response.message.find("no open session") != std::string::npos) {
        if (ring_version_.load(std::memory_order_acquire) != ring_version ||
            rebalance_active_.load(std::memory_order_acquire)) {
          // The ring moved (or is moving) while this request was in
          // flight: what looks like an unknown session may just have been
          // handed to another shard. Re-route and reissue.
          m.forward_retries.add(1);
          failure = response.message;
          continue;
        }
        if (!tried_stray_recovery && recover_stray(request.session)) {
          // Stable ring but the session was stranded off its ring owner
          // (an open that raced a membership change); it has been pulled
          // home, reissue there.
          tried_stray_recovery = true;
          m.forward_retries.add(1);
          failure = response.message;
          continue;
        }
      }
      return response;
    } catch (const ccd::Error& e) {
      m.forward_retries.add(1);
      failure = e.what();
      // Distinguish a broken connection from a dead shard: a fresh dial
      // succeeding means only this connection failed — retry. A dial
      // failing (after its own retry/backoff budget) declares the shard
      // down and hands its sessions off before the next attempt.
      try {
        release(*shard, dial(*shard));
      } catch (const ccd::Error&) {
        on_shard_down(*shard, failure);
      }
    }
  }
  m.forward_failures.add(1);
  Response response;
  response.status = Status::kDataError;
  response.message = "forward of " + std::string(to_string(request.op)) +
                     " for session '" + request.session +
                     "' failed: " + failure;
  return response;
}

Response Gateway::handle(const Request& request) {
  GatewayMetrics& m = GatewayMetrics::instance();
  m.requests.add(1);
  Response response;
  try {
    switch (request.op) {
      case Op::kPing:
        response.text = kBanner;
        m.local.add(1);
        break;
      case Op::kMetrics:
        response.text = request.metrics_prometheus ? metrics::to_prometheus()
                                                   : metrics::to_json();
        m.local.add(1);
        break;
      case Op::kHealth:
        response = local_health();
        m.local.add(1);
        break;
      case Op::kShutdown:
        broadcast_shutdown();
        shutdown_requested_.store(true, std::memory_order_release);
        m.local.add(1);
        break;
      case Op::kJoin: {
        // Admin frame: spec validation errors surface as a status on this
        // response (the catch below), never as a gateway-thread crash.
        const AdminResult result =
            admit_shard(ShardSpec::from_target(request.shard));
        response.status = result.status;
        response.message = result.message;
        response.text = "ring_version=" + std::to_string(result.ring_version) +
                        " sessions_moved=" +
                        std::to_string(result.sessions_moved);
        m.local.add(1);
        break;
      }
      case Op::kRetire: {
        const AdminResult result = retire_shard(
            request.shard.name.empty() ? request.session : request.shard.name);
        response.status = result.status;
        response.message = result.message;
        response.text = "ring_version=" + std::to_string(result.ring_version);
        m.local.add(1);
        break;
      }
      case Op::kAuth:
        // The handshake is transport-level (consumed by auth_intercept on
        // socket connections); an in-process caller has nothing to prove.
        response.status = Status::kConfigError;
        response.message = "op 'auth' is only meaningful on a socket";
        m.local.add(1);
        break;
      default: {
        // Session-scoped op: forward, under the inflight cap.
        if (shutdown_requested_.load(std::memory_order_acquire)) {
          response.status = Status::kShuttingDown;
          response.message = "gateway is draining";
          m.rejected.add(1);
          break;
        }
        const std::size_t inflight =
            inflight_.fetch_add(1, std::memory_order_acq_rel);
        if (inflight >= config_.max_inflight) {
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
          response.status = Status::kBackpressure;
          response.message = "gateway at max_inflight (" +
                             std::to_string(config_.max_inflight) + ")";
          m.backpressure.add(1);
          break;
        }
        m.inflight.set(static_cast<double>(inflight + 1));
        try {
          response = forward(request);
        } catch (...) {
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
          throw;
        }
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        break;
      }
    }
  } catch (const ccd::Error& e) {
    // Defensive: forward() reports failures as responses, so only local
    // handling can land here.
    response.status = status_for(e);
    response.message = e.what();
    m.local.add(1);
  }
  response.request_id = request.request_id;
  m.responses.add(1);
  return response;
}

Response Gateway::local_health() {
  Response response;
  HealthInfo total;
  bool draining = shutdown_requested_.load(std::memory_order_acquire);
  for (Shard* shard : shard_snapshot()) {
    if (!shard->alive.load(std::memory_order_relaxed)) continue;
    if (config_.health_interval_ms <= 0) {
      // No prober: refresh synchronously so health is never stale.
      probe_shard(*shard);
    }
    std::lock_guard<std::mutex> lock(shard->health_mutex);
    if (!shard->health_valid) continue;
    total.sessions_open += shard->last_health.sessions_open;
    total.max_sessions += shard->last_health.max_sessions;
    total.queue_depth += shard->last_health.queue_depth;
    total.queue_capacity += shard->last_health.queue_capacity;
    draining = draining || shard->last_health.draining;
  }
  total.draining = draining;
  response.health = total;
  return response;
}

void Gateway::broadcast_shutdown() {
  for (Shard* shard : shard_snapshot()) {
    if (!shard->alive.load(std::memory_order_relaxed)) continue;
    Request request;
    request.op = Op::kShutdown;
    request.request_id =
        internal_request_id_.fetch_add(1, std::memory_order_relaxed);
    try {
      (void)roundtrip(*shard, request);
    } catch (const ccd::Error&) {
      // Best effort; a shard that is already gone needs no shutdown.
    }
  }
}

// ---------------------------------------------------------------------------
// Liveness and failover.

bool Gateway::probe_shard(Shard& shard) {
  Request request;
  request.op = Op::kHealth;
  request.request_id =
      internal_request_id_.fetch_add(1, std::memory_order_relaxed);
  try {
    const Response response = roundtrip(shard, request);
    if (is_error(response.status)) return false;
    std::lock_guard<std::mutex> lock(shard.health_mutex);
    shard.last_health = response.health;
    shard.health_valid = true;
    return true;
  } catch (const ccd::Error&) {
    return false;
  }
}

void Gateway::prober_loop() {
  const auto interval = std::chrono::milliseconds(config_.health_interval_ms);
  std::unique_lock<std::mutex> lock(prober_mutex_);
  while (!prober_stop_) {
    prober_cv_.wait_for(lock, interval, [this] { return prober_stop_; });
    if (prober_stop_) return;
    lock.unlock();
    for (Shard* shard : shard_snapshot()) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (!shard->alive.load(std::memory_order_relaxed)) continue;
      if (!probe_shard(*shard)) {
        on_shard_down(*shard, "health probe failed");
      }
    }
    lock.lock();
  }
}

Gateway::AdminResult Gateway::retire_shard(const std::string& name) {
  AdminResult result;
  Shard* shard = find_shard(name);
  if (shard == nullptr) {
    // Under dynamic membership an unknown name is an admin race (a retire
    // crossing a rename or a double-submit), not a config error: report
    // it without killing the connection or the gateway thread.
    result.status = Status::kUnavailable;
    result.message = "unknown shard '" + name + "' (nothing to retire)";
    result.ring_version = ring_version();
    return result;
  }
  if (!shard->alive.load(std::memory_order_relaxed)) {
    result.message = "shard '" + name + "' already retired";
    result.ring_version = ring_version();
    return result;
  }
  on_shard_down(*shard, "retired by operator");
  result.message = "shard '" + name + "' retired";
  result.ring_version = ring_version();
  return result;
}

Gateway::AdminResult Gateway::admit_shard(const ShardSpec& spec) {
  spec.validate();  // same bar as startup shards; throws ConfigError
  GatewayMetrics& m = GatewayMetrics::instance();
  AdminResult result;
  std::lock_guard<std::mutex> lock(failover_mutex_);

  Shard* shard = find_shard(spec.name);
  if (shard != nullptr && shard->alive.load(std::memory_order_relaxed)) {
    if (shard->spec.same_target(spec)) {
      // Idempotent repeat of a live join.
      result.message = "shard '" + spec.name + "' already admitted";
      result.ring_version = ring_version();
      return result;
    }
    result.status = Status::kUnavailable;
    result.message = "shard name '" + spec.name +
                     "' is live on a different endpoint; retire it first";
    result.ring_version = ring_version();
    return result;
  }
  if (shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    owned->spec = spec;
    owned->alive.store(false, std::memory_order_relaxed);
    shard = owned.get();
    std::lock_guard<std::mutex> shards(shards_mutex_);
    owned->index = shards_.size();
    shards_.push_back(std::move(owned));
  } else {
    // Rejoin of a retired name, possibly on a new endpoint.
    shard->spec = spec;
    shard->health_valid = false;
  }

  // Probe before admitting: a shard that cannot answer a health frame
  // never enters the ring (the spec stays parked as retired).
  if (!probe_shard(*shard)) {
    result.status = Status::kUnavailable;
    result.message = "shard '" + spec.name +
                     "' failed its admission probe; is the daemon up?";
    result.ring_version = ring_version();
    return result;
  }

  // Enumerate what the current owners hold (in-memory sessions plus
  // idle-evicted checkpoints) BEFORE the routing flip, so the move list
  // is exactly the pre-join population.
  rebalance_active_.store(true, std::memory_order_release);
  std::vector<std::pair<std::string, Shard*>> holdings;
  std::set<std::string> seen;
  for (Shard* holder : shard_snapshot()) {
    if (holder == shard || !holder->alive.load(std::memory_order_relaxed)) {
      continue;
    }
    Request list;
    list.op = Op::kListSessions;
    list.request_id =
        internal_request_id_.fetch_add(1, std::memory_order_relaxed);
    try {
      const Response response = roundtrip(*holder, list);
      if (is_error(response.status)) continue;
      for (const std::string& id : response.session_ids) {
        if (seen.insert(id).second) holdings.emplace_back(id, holder);
      }
    } catch (const ccd::Error&) {
      // A holder failing its list keeps its sessions; if any of them now
      // belong to the joiner they are pulled by the stray path on first
      // touch instead.
    }
  }

  // Flip routing. Forwards issued from here on land on the post-join
  // ring; "no open session" during the move window is retried behind the
  // failover_mutex_ barrier (rebalance_active_), so in-flight requests
  // land exactly once on the final owner.
  shard->alive.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> ring(ring_mutex_);
    rebuild_ring_locked();
  }
  ring_version_.fetch_add(1, std::memory_order_acq_rel);
  m.joins.add(1);
  m.shards_alive.set(static_cast<double>(alive_shard_count()));

  // Move ONLY the sessions whose ring owner changed (consistent hashing:
  // a join reassigns ~1/N of the keyspace to the joiner and nothing
  // else). Everything staying put is untouched — campaigns there never
  // notice the membership change.
  for (const auto& [id, holder] : holdings) {
    Shard* owner = route(id);
    if (owner == nullptr || owner == holder) continue;
    try {
      move_session_locked(id, *holder, *owner);
      m.sessions_handed_off.add(1);
      m.sessions_restored.add(1);
      ++result.sessions_moved;
    } catch (const ccd::Error&) {
      m.handoff_failures.add(1);
    }
  }
  rebalance_active_.store(false, std::memory_order_release);

  result.message = "shard '" + spec.name + "' admitted";
  result.ring_version = ring_version();
  return result;
}

void Gateway::move_session_locked(const std::string& id, Shard& from,
                                  Shard& to) {
  Request export_request;
  export_request.op = Op::kExport;
  export_request.session = id;
  export_request.request_id =
      internal_request_id_.fetch_add(1, std::memory_order_relaxed);
  const Response exported = roundtrip(from, export_request);
  if (is_error(exported.status)) {
    throw DataError("export of session '" + id + "' from shard '" +
                    from.spec.name + "' failed: " + exported.message);
  }

  Request restore_request;
  restore_request.op = Op::kRestore;
  restore_request.session = id;
  restore_request.checkpoint_blob = exported.checkpoint_blob;
  restore_request.request_id =
      internal_request_id_.fetch_add(1, std::memory_order_relaxed);
  try {
    const Response restored = roundtrip(to, restore_request);
    if (is_error(restored.status)) {
      throw DataError("restore of session '" + id + "' on shard '" +
                      to.spec.name + "' failed: " + restored.message);
    }
  } catch (const ccd::Error&) {
    // The session left `from` but never landed on `to`: put it back on
    // the holder so the campaign survives the failed move (its requests
    // then recover via the stray path).
    restore_request.request_id =
        internal_request_id_.fetch_add(1, std::memory_order_relaxed);
    try {
      (void)roundtrip(from, restore_request);
    } catch (const ccd::Error&) {
      // Both sides failing is a genuine loss; counted by the caller.
    }
    throw;
  }
}

bool Gateway::recover_stray(const std::string& session) {
  std::lock_guard<std::mutex> lock(failover_mutex_);
  GatewayMetrics& m = GatewayMetrics::instance();
  Shard* owner = route(session);
  if (owner == nullptr) return false;
  for (Shard* holder : shard_snapshot()) {
    if (holder == owner || !holder->alive.load(std::memory_order_relaxed)) {
      continue;
    }
    try {
      move_session_locked(session, *holder, *owner);
      m.strays_recovered.add(1);
      m.sessions_handed_off.add(1);
      m.sessions_restored.add(1);
      return true;
    } catch (const ccd::Error&) {
      // Not on this shard (export refused) or the move failed; keep
      // scanning — a false return just surfaces the original error.
    }
  }
  return false;
}

void Gateway::on_shard_down(Shard& shard, const std::string& reason) {
  std::lock_guard<std::mutex> lock(failover_mutex_);
  if (!shard.alive.load(std::memory_order_relaxed)) return;  // raced: done
  GatewayMetrics& m = GatewayMetrics::instance();
  rebalance_active_.store(true, std::memory_order_release);
  shard.alive.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> pool(shard.pool_mutex);
    shard.pool.clear();
  }
  {
    std::lock_guard<std::mutex> ring(ring_mutex_);
    rebuild_ring_locked();
  }
  m.failovers.add(1);
  m.shards_alive.set(static_cast<double>(alive_shard_count()));
  (void)reason;
  handoff_locked(shard);
  // Publish only after the survivors hold the sessions: a forward that
  // raced the handoff retries once it sees the version move.
  ring_version_.fetch_add(1, std::memory_order_acq_rel);
  rebalance_active_.store(false, std::memory_order_release);
}

void Gateway::handoff_locked(Shard& dead) {
  if (dead.spec.checkpoint_dir.empty()) return;
  GatewayMetrics& m = GatewayMetrics::instance();

  std::vector<CheckpointFile> entries;
  try {
    entries = list_checkpoint_files(dead.spec.checkpoint_dir);
  } catch (const ConfigError&) {
    return;  // nothing to scavenge
  }

  for (const CheckpointFile& entry : entries) {
    try {
      Request request;
      request.op = Op::kRestore;
      request.session = entry.id;
      request.request_id =
          internal_request_id_.fetch_add(1, std::memory_order_relaxed);
      // Raw file image: the shard validates the frame (tag, version,
      // checksum) before decoding, so a torn checkpoint is rejected
      // there, not silently installed.
      request.checkpoint_blob = util::read_file(entry.path);
      Shard* target = route(entry.id);  // dead shard already off the ring
      if (target == nullptr) {
        throw DataError("no surviving shard for session '" + entry.id + "'");
      }
      const Response response = roundtrip(*target, request);
      if (is_error(response.status)) {
        throw DataError("restore of session '" + entry.id + "' on shard '" +
                        target->spec.name + "' failed: " + response.message);
      }
      m.sessions_handed_off.add(1);
      m.sessions_restored.add(1);
      // Remove the scavenged checkpoint: if this daemon is later
      // restarted on the same directory with resume=1 (a rejoin), a stale
      // file would resurrect a session that now lives elsewhere.
      ::unlink(entry.path.c_str());
    } catch (const ccd::Error&) {
      // Do not cascade failovers from inside one — a survivor failing
      // here is caught by the prober or by live traffic.
      m.handoff_failures.add(1);
    }
  }
}

}  // namespace ccd::serve
