#include "serve/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace ccd::serve {

namespace metrics = util::metrics;

namespace {

/// All `ccd.serve.*` instruments, registered once. The reconciliation
/// invariant (tested): submitted == responses + in-flight, and
/// responses == admitted-and-answered + backpressure + shutdown
/// rejections — a client can account for every request it ever sent.
struct ServeMetrics {
  metrics::Counter& submitted;
  metrics::Counter& responses;
  metrics::Counter& backpressure;
  metrics::Counter& shutdown_rejected;
  metrics::Counter& errors;
  metrics::Counter& deadline_expired;
  metrics::Counter& rounds;
  metrics::Counter& sessions_opened;
  metrics::Counter& sessions_closed;
  metrics::Counter& sessions_resumed;
  metrics::Counter& sessions_restored;
  metrics::Counter& sessions_exported;
  metrics::Counter& sessions_evicted;
  metrics::Counter& sessions_reloaded;
  metrics::Counter& resume_skipped;
  metrics::Gauge& queue_depth;
  metrics::Gauge& sessions_open;
  metrics::Histogram& queue_wait_us;
  metrics::Histogram& request_us;

  static ServeMetrics& instance() {
    static ServeMetrics m = [] {
      metrics::MetricsRegistry& reg = metrics::registry();
      return ServeMetrics{reg.counter("ccd.serve.submitted"),
                          reg.counter("ccd.serve.responses"),
                          reg.counter("ccd.serve.backpressure"),
                          reg.counter("ccd.serve.shutdown_rejected"),
                          reg.counter("ccd.serve.errors"),
                          reg.counter("ccd.serve.deadline_expired"),
                          reg.counter("ccd.serve.rounds"),
                          reg.counter("ccd.serve.sessions_opened"),
                          reg.counter("ccd.serve.sessions_closed"),
                          reg.counter("ccd.serve.sessions_resumed"),
                          reg.counter("ccd.serve.sessions_restored"),
                          reg.counter("ccd.serve.sessions_exported"),
                          reg.counter("ccd.serve.sessions_evicted"),
                          reg.counter("ccd.serve.sessions_reloaded"),
                          reg.counter("ccd.serve.resume_skipped"),
                          reg.gauge("ccd.serve.queue_depth"),
                          reg.gauge("ccd.serve.sessions_open"),
                          reg.histogram("ccd.serve.queue_wait_us"),
                          reg.histogram("ccd.serve.request_us")};
    }();
    return m;
  }
};

}  // namespace

void EngineConfig::validate() const {
  require_config(worker_threads >= 1, "engine needs at least one executor");
  require_config(queue_capacity >= 1,
                 "admission queue capacity must be >= 1");
  require_config(max_sessions >= 1, "max_sessions must be >= 1");
  require_config(checkpoint_every >= 1, "checkpoint_every must be >= 1");
  require_config(idle_ttl_ms == 0 || !checkpoint_dir.empty(),
                 "idle_ttl_ms requires a checkpoint_dir (evicting without "
                 "durability would discard campaign state)");
}

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  config_.validate();
  ServeMetrics::instance();  // register instruments eagerly
  executors_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  if (config_.idle_ttl_ms > 0) {
    reaper_ = std::thread([this] { reaper_loop(); });
  }
}

Engine::~Engine() { stop(); }

Session::Env Engine::session_env() {
  Session::Env env;
  env.checkpoint_dir = config_.checkpoint_dir;
  env.checkpoint_every = config_.checkpoint_every;
  return env;
}

ResumeReport Engine::resume_sessions() {
  ResumeReport report;
  if (config_.checkpoint_dir.empty()) return report;
  for (const auto& [id, mode, path] :
       list_checkpoint_files(config_.checkpoint_dir)) {
    try {
      std::unique_ptr<Session> session =
          Session::restore(id, path, session_env());
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      if (sessions_.count(id) != 0) {
        throw DataError("duplicate checkpoints for session '" + id + "'");
      }
      sessions_.emplace(id, std::shared_ptr<Session>(std::move(session)));
      ServeMetrics::instance().sessions_resumed.add(1);
      ServeMetrics::instance().sessions_open.set(
          static_cast<double>(sessions_.size()));
      ++report.restored;
    } catch (const DataError& e) {
      // One corrupt/truncated/ambiguous checkpoint must not block every
      // other campaign from resuming: record it and move on.
      report.skipped.push_back({id, path, e.what()});
      ServeMetrics::instance().resume_skipped.add(1);
    }
  }
  return report;
}

bool Engine::submit(Request request, std::function<void(Response)> done) {
  ServeMetrics& m = ServeMetrics::instance();
  m.submitted.add(1);

  Job job;
  job.request = std::move(request);
  job.done = std::move(done);
  if (job.request.deadline_ms > 0) {
    job.token.set_deadline(util::Deadline::after(
        static_cast<double>(job.request.deadline_ms) / 1000.0));
  }
  job.admitted_at = std::chrono::steady_clock::now();

  bool draining;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining = stopping_;
    if (!stopping_ && queue_.size() < config_.queue_capacity) {
      queue_.push_back(std::move(job));
      m.queue_depth.set(static_cast<double>(queue_.size()));
      queue_cv_.notify_one();
      return true;
    }
  }

  // Rejected — answer immediately, nothing was enqueued.
  Response response;
  response.request_id = job.request.request_id;
  if (draining || shutdown_requested_.load(std::memory_order_relaxed)) {
    response.status = Status::kShuttingDown;
    response.message = "engine is draining; no new work admitted";
    m.shutdown_rejected.add(1);
  } else {
    response.status = Status::kBackpressure;
    response.message = "admission queue full (capacity " +
                       std::to_string(config_.queue_capacity) + "); retry";
    m.backpressure.add(1);
  }
  m.responses.add(1);
  job.done(std::move(response));
  return false;
}

Response Engine::call(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submit(std::move(request),
         [&promise](Response r) { promise.set_value(std::move(r)); });
  return future.get();
}

void Engine::executor_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ServeMetrics::instance().queue_depth.set(
          static_cast<double>(queue_.size()));
    }

    ServeMetrics& m = ServeMetrics::instance();
    const auto start = std::chrono::steady_clock::now();
    m.queue_wait_us.record(
        std::chrono::duration<double, std::micro>(start - job.admitted_at)
            .count());

    Response response;
    if (job.token.poll()) {
      // The whole budget burned in the queue: answer without touching the
      // session.
      response.request_id = job.request.request_id;
      response.status = Status::kDeadline;
      response.message = "deadline expired while queued";
      m.deadline_expired.add(1);
    } else {
      try {
        response = handle(job.request, job.token);
      } catch (const ccd::Error& e) {
        response = Response{};
        response.request_id = job.request.request_id;
        response.status = status_for(e);
        response.message = e.what();
      }
      if (response.status == Status::kDeadline) m.deadline_expired.add(1);
      if (is_error(response.status)) m.errors.add(1);
    }

    m.request_us.record(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    finish(job, std::move(response));
  }
}

void Engine::finish(Job& job, Response response) {
  ServeMetrics::instance().responses.add(1);
  job.done(std::move(response));
}

std::shared_ptr<Session> Engine::reload_locked(const std::string& id) {
  if (config_.checkpoint_dir.empty() || !valid_session_id(id)) return nullptr;
  for (const SessionMode mode :
       {SessionMode::kSimulation, SessionMode::kIngest}) {
    const std::string path =
        config_.checkpoint_dir + "/" + id + Session::checkpoint_suffix(mode);
    if (::access(path.c_str(), F_OK) != 0) continue;
    if (sessions_.size() >= config_.max_sessions) {
      throw ConfigError("session limit reached (" +
                        std::to_string(config_.max_sessions) +
                        "); cannot reload evicted session '" + id + "'");
    }
    // Corruption surfaces as DataError to the caller — an existing file
    // means the session logically exists, so "no open session" would lie.
    std::shared_ptr<Session> session = Session::restore(id, path,
                                                        session_env());
    sessions_.emplace(id, session);
    ServeMetrics::instance().sessions_reloaded.add(1);
    ServeMetrics::instance().sessions_open.set(
        static_cast<double>(sessions_.size()));
    return session;
  }
  return nullptr;
}

std::shared_ptr<Session> Engine::find_session(const std::string& id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    it->second->touch();
    return it->second;
  }
  // Evicted-but-checkpointed sessions transparently resurrect: eviction
  // frees the slot, not the campaign.
  std::shared_ptr<Session> reloaded = reload_locked(id);
  if (reloaded != nullptr) {
    reloaded->touch();
    return reloaded;
  }
  throw ConfigError("no open session '" + id + "'");
}

Response Engine::handle(const Request& request,
                        const util::CancellationToken& token) {
  Response response;
  response.request_id = request.request_id;

  switch (request.op) {
    case Op::kPing:
      response.text = "ccd-serve/" + std::to_string(kProtocolVersion);
      return response;

    case Op::kMetrics:
      response.text = request.metrics_prometheus ? metrics::to_prometheus()
                                                 : metrics::to_json();
      return response;

    case Op::kShutdown:
      shutdown_requested_.store(true, std::memory_order_relaxed);
      response.text = "draining";
      return response;

    case Op::kOpen:
      return handle_open(request);

    case Op::kClose:
      return handle_close(request);

    case Op::kRestore:
      return handle_restore(request);

    case Op::kHealth:
      return handle_health(request);

    case Op::kExport:
      return handle_export(request);

    case Op::kListSessions:
      return handle_list(request);

    case Op::kAuth:
    case Op::kJoin:
    case Op::kRetire:
      // Connection-level (auth) and gateway-level (membership) ops never
      // reach the engine; a server without a gateway reports them cleanly.
      throw ConfigError(std::string("op '") + serve::to_string(request.op) +
                        "' is not handled by this endpoint");

    case Op::kAdvance: {
      std::shared_ptr<Session> session = find_session(request.session);
      std::lock_guard<std::mutex> lock(session->mutex());
      const core::StepStatus step =
          session->advance(request.advance_rounds, &token);
      ServeMetrics::instance().rounds.add(step.completed_rounds);
      response.session = session->status();
      if (step.cancelled) {
        response.status = Status::kDeadline;
        response.message = "deadline expired after " +
                           std::to_string(step.completed_rounds) +
                           " completed round(s); progress is retained";
      }
      return response;
    }

    case Op::kIngest: {
      std::shared_ptr<Session> session = find_session(request.session);
      std::lock_guard<std::mutex> lock(session->mutex());
      response.redesigned = session->ingest(request.observations, &token);
      ServeMetrics::instance().rounds.add(1);
      response.session = session->status();
      if (token.cancelled()) {
        response.status = Status::kDeadline;
        response.message =
            "deadline expired during redesign; previous contracts remain "
            "posted";
      }
      return response;
    }

    case Op::kContracts: {
      std::shared_ptr<Session> session = find_session(request.session);
      std::lock_guard<std::mutex> lock(session->mutex());
      response.contracts = session->contracts();
      response.session = session->status();
      return response;
    }

    case Op::kStatus: {
      std::shared_ptr<Session> session = find_session(request.session);
      std::lock_guard<std::mutex> lock(session->mutex());
      response.session = session->status();
      return response;
    }
  }
  throw DataError("unhandled serve op");
}

Response Engine::handle_open(const Request& request) {
  Response response;
  response.request_id = request.request_id;

  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    std::shared_ptr<Session> existing;
    auto it = sessions_.find(request.session);
    if (it != sessions_.end()) {
      existing = it->second;
    } else {
      // An evicted session still owns its id: open must resume it from
      // the checkpoint, never shadow it with a fresh campaign.
      existing = reload_locked(request.session);
    }
    if (existing != nullptr) {
      if (!request.open.allow_existing) {
        throw ConfigError("session '" + request.session + "' already open");
      }
      existing->touch();
      std::lock_guard<std::mutex> session_lock(existing->mutex());
      response.session = existing->status();
      return response;
    }
    if (sessions_.size() >= config_.max_sessions) {
      throw ConfigError("session limit reached (" +
                        std::to_string(config_.max_sessions) + ")");
    }
  }

  // Construct outside the map lock (fleet setup does real work), then
  // insert; a racing open of the same id loses and reports already-open.
  auto session = std::make_shared<Session>(request.session, request.open,
                                           session_env());
  session->checkpoint();  // durable from the moment it is acknowledged
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (!sessions_.emplace(request.session, session).second) {
      session->remove_checkpoint();
      throw ConfigError("session '" + request.session + "' already open");
    }
    ServeMetrics::instance().sessions_open.set(
        static_cast<double>(sessions_.size()));
  }
  ServeMetrics::instance().sessions_opened.add(1);
  response.session = session->status();
  return response;
}

Response Engine::handle_close(const Request& request) {
  Response response;
  response.request_id = request.request_id;

  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(request.session);
    if (it == sessions_.end()) {
      // Close of an evicted session must still discard its checkpoint.
      session = reload_locked(request.session);
      if (session == nullptr) {
        throw ConfigError("no open session '" + request.session + "'");
      }
      it = sessions_.find(request.session);
    }
    session = std::move(it->second);
    sessions_.erase(it);
    ServeMetrics::instance().sessions_open.set(
        static_cast<double>(sessions_.size()));
  }
  std::lock_guard<std::mutex> session_lock(session->mutex());
  response.session = session->status();
  session->remove_checkpoint();
  ServeMetrics::instance().sessions_closed.add(1);
  return response;
}

Response Engine::handle_restore(const Request& request) {
  Response response;
  response.request_id = request.request_id;

  // Idempotent for gateway retries: a restore that already landed (in
  // memory or as a reloadable checkpoint) reports the session's status
  // instead of failing, so a retried handoff cannot double-install.
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    std::shared_ptr<Session> existing;
    auto it = sessions_.find(request.session);
    existing = it != sessions_.end() ? it->second
                                     : reload_locked(request.session);
    if (existing != nullptr) {
      existing->touch();
      std::lock_guard<std::mutex> session_lock(existing->mutex());
      response.session = existing->status();
      return response;
    }
    if (sessions_.size() >= config_.max_sessions) {
      throw ConfigError("session limit reached (" +
                        std::to_string(config_.max_sessions) +
                        "); cannot restore '" + request.session + "'");
    }
  }
  if (request.checkpoint_blob.empty()) {
    throw ConfigError("restore of '" + request.session +
                      "' carries no checkpoint blob");
  }

  auto session = std::shared_ptr<Session>(
      Session::restore_blob(request.session, request.checkpoint_blob,
                            session_env()));
  session->checkpoint();  // durable on this shard before acknowledging
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (!sessions_.emplace(request.session, session).second) {
      // A racing restore of the same id won; both carried the same frame.
      std::shared_ptr<Session> winner = sessions_.at(request.session);
      std::lock_guard<std::mutex> session_lock(winner->mutex());
      response.session = winner->status();
      return response;
    }
    ServeMetrics::instance().sessions_open.set(
        static_cast<double>(sessions_.size()));
  }
  ServeMetrics::instance().sessions_restored.add(1);
  {
    std::lock_guard<std::mutex> session_lock(session->mutex());
    response.session = session->status();
  }
  return response;
}

Response Engine::handle_export(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  if (config_.checkpoint_dir.empty()) {
    throw ConfigError("export requires a checkpoint_dir (session state "
                      "leaves this shard as checkpoint bytes)");
  }

  // sessions_mutex_ is held for the whole export so no concurrent request
  // can resurrect the id from its checkpoint file between the snapshot
  // and the erase — once we answer, this shard no longer owns the session.
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::shared_ptr<Session> session;
  auto it = sessions_.find(request.session);
  session = it != sessions_.end() ? it->second : reload_locked(request.session);
  if (session == nullptr) {
    throw ConfigError("no open session '" + request.session + "'");
  }
  {
    // Lock order (sessions_mutex_ then session mutex) matches handle_open.
    // A racing op that already holds the session pointer finishes first;
    // the snapshot below then includes its round.
    std::lock_guard<std::mutex> session_lock(session->mutex());
    session->checkpoint();
    response.checkpoint_blob = util::read_file(session->checkpoint_path());
    response.session = session->status();
    session->remove_checkpoint();
  }
  sessions_.erase(request.session);
  ServeMetrics::instance().sessions_exported.add(1);
  ServeMetrics::instance().sessions_open.set(
      static_cast<double>(sessions_.size()));
  return response;
}

Response Engine::handle_list(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  std::set<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& [id, session] : sessions_) ids.insert(id);
  }
  // Idle-evicted sessions live only as checkpoint files but are still
  // owned by this shard; a rebalance that missed them would strand them.
  if (!config_.checkpoint_dir.empty()) {
    for (const CheckpointFile& file :
         list_checkpoint_files(config_.checkpoint_dir)) {
      ids.insert(file.id);
    }
  }
  response.session_ids.assign(ids.begin(), ids.end());
  return response;
}

Response Engine::handle_health(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    response.health.sessions_open = sessions_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    response.health.queue_depth = queue_.size();
    response.health.draining =
        stopping_ || shutdown_requested_.load(std::memory_order_relaxed);
  }
  response.health.max_sessions = config_.max_sessions;
  response.health.queue_capacity = config_.queue_capacity;
  return response;
}

void Engine::reaper_loop() {
  const auto ttl = std::chrono::milliseconds(config_.idle_ttl_ms);
  // Scan a few times per TTL so eviction lag stays a fraction of the TTL
  // without busy-polling tiny intervals.
  const auto scan_every =
      std::max<std::chrono::milliseconds>(ttl / 4,
                                          std::chrono::milliseconds(10));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(reaper_mutex_);
      reaper_cv_.wait_for(lock, scan_every, [this] { return reaper_stop_; });
      if (reaper_stop_) return;
    }
    // Keep evicted sessions alive past the map erase: their mutexes must
    // not be destroyed while this thread still holds the unlock.
    std::vector<std::shared_ptr<Session>> evicted;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        std::shared_ptr<Session>& session = it->second;
        // use_count == 1: only the map holds it — no executor is mid-op
        // (find_session copies under sessions_mutex_, which we hold).
        if (session.use_count() == 1 && session->idle_for() >= ttl) {
          std::unique_lock<std::mutex> session_lock(session->mutex(),
                                                    std::try_to_lock);
          if (session_lock.owns_lock()) {
            session->checkpoint();
            session_lock.unlock();
            evicted.push_back(std::move(session));
            it = sessions_.erase(it);
            continue;
          }
        }
        ++it;
      }
      if (!evicted.empty()) {
        ServeMetrics::instance().sessions_open.set(
            static_cast<double>(sessions_.size()));
        // Counted before the lock drops, so whoever sees a session gone
        // also sees it counted.
        ServeMetrics::instance().sessions_evicted.add(evicted.size());
      }
    }
  }
}

void Engine::checkpoint_all() {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (const std::shared_ptr<Session>& session : sessions) {
    std::lock_guard<std::mutex> lock(session->mutex());
    session->checkpoint();
  }
}

void Engine::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && executors_.empty()) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : executors_) t.join();
  executors_.clear();
  if (reaper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reaper_mutex_);
      reaper_stop_ = true;
    }
    reaper_cv_.notify_all();
    reaper_.join();
  }
  ServeMetrics::instance().queue_depth.set(0.0);
  checkpoint_all();
}

bool Engine::shutdown_requested() const {
  return shutdown_requested_.load(std::memory_order_relaxed);
}

std::size_t Engine::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

}  // namespace ccd::serve
