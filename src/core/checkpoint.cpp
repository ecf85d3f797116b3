#include "core/checkpoint.hpp"

#include <cstddef>

#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace ccd::core {
namespace {

constexpr const char* kTag = "SCKP";

// The byte stream is util::wire (little-endian; doubles as their exact bit
// patterns): the checkpoint contract is bitwise resume, which a text
// round-trip cannot guarantee.
using ByteWriter = util::wire::Writer;
using ByteReader = util::wire::Reader;

void check_version(std::uint32_t version) {
  if (version < SimCheckpoint::kMinReadVersion ||
      version > SimCheckpoint::kVersion) {
    throw DataError("unsupported checkpoint payload version " +
                    std::to_string(version));
  }
}

void write_config(ByteWriter& w, const SimConfig& config,
                  std::uint32_t version) {
  w.u64(config.rounds);
  encode_requester_config(w, config.requester);
  w.f64(config.feedback_noise);
  w.f64(config.accuracy_noise);
  w.u64(config.redesign_every);
  w.f64(config.ema_alpha);
  w.f64(config.suspicion_threshold);
  w.u64(config.seed);
  w.u64(config.checkpoint_every);
  w.str(config.checkpoint_path);
  w.u64(config.threads);
  if (version >= 3) {
    encode_policy_config(w, config.policy);
  } else {
    // A v2 payload cannot carry a policy section; refuse to silently drop
    // a non-default backend.
    CCD_CHECK_MSG(config.policy.kind == policy::Kind::kBip,
                  "v2 checkpoints support only the bip policy backend");
  }
}

SimConfig read_config(ByteReader& r, std::uint32_t version) {
  SimConfig config;
  config.rounds = r.u64();
  config.requester = decode_requester_config(r);
  config.feedback_noise = r.f64();
  config.accuracy_noise = r.f64();
  config.redesign_every = r.u64();
  config.ema_alpha = r.f64();
  config.suspicion_threshold = r.f64();
  config.seed = r.u64();
  config.checkpoint_every = r.u64();
  config.checkpoint_path = r.str();
  config.threads = r.u64();
  if (version >= 3) config.policy = decode_policy_config(r);
  return config;
}

void write_worker(ByteWriter& w, const SimWorkerSpec& spec) {
  w.str(spec.name);
  w.f64(spec.psi.r2());
  w.f64(spec.psi.r1());
  w.f64(spec.psi.r0());
  w.f64(spec.beta);
  w.f64(spec.omega);
  w.f64(spec.accuracy_distance);
  w.u64(spec.partners);
  w.u8(spec.switch_round.has_value() ? 1 : 0);
  w.u64(spec.switch_round.value_or(0));
  w.f64(spec.switched_omega);
  w.f64(spec.switched_accuracy_distance);
  w.u8(spec.masking_period.has_value() ? 1 : 0);
  w.u64(spec.masking_period.value_or(0));
  w.f64(spec.masking_duty);
  w.u64(spec.arrive_round);
  w.u8(spec.depart_round.has_value() ? 1 : 0);
  w.u64(spec.depart_round.value_or(0));
}

SimWorkerSpec read_worker(ByteReader& r) {
  SimWorkerSpec spec;
  spec.name = r.str();
  const double r2 = r.f64();
  const double r1 = r.f64();
  const double r0 = r.f64();
  spec.psi = effort::QuadraticEffort(r2, r1, r0);
  spec.beta = r.f64();
  spec.omega = r.f64();
  spec.accuracy_distance = r.f64();
  spec.partners = r.u64();
  const bool has_switch = r.u8() != 0;
  const std::uint64_t switch_round = r.u64();
  if (has_switch) spec.switch_round = switch_round;
  spec.switched_omega = r.f64();
  spec.switched_accuracy_distance = r.f64();
  const bool has_masking = r.u8() != 0;
  const std::uint64_t masking_period = r.u64();
  if (has_masking) spec.masking_period = masking_period;
  spec.masking_duty = r.f64();
  spec.arrive_round = r.u64();
  const bool has_depart = r.u8() != 0;
  const std::uint64_t depart_round = r.u64();
  if (has_depart) spec.depart_round = depart_round;
  return spec;
}

void write_history(ByteWriter& w, const SimResult& history) {
  w.u64(history.rounds.size());
  for (const RoundRecord& record : history.rounds) {
    w.u64(record.round);
    w.f64(record.requester_utility);
    w.f64(record.total_compensation);
    w.f64(record.weighted_feedback);
  }
  w.u64(history.worker_history.size());
  for (const std::vector<WorkerRound>& series : history.worker_history) {
    w.u64(series.size());
    for (const WorkerRound& wr : series) {
      w.f64(wr.effort);
      w.f64(wr.feedback);
      w.f64(wr.compensation);
      w.f64(wr.worker_utility);
      w.f64(wr.estimated_malicious);
      w.f64(wr.weight);
    }
  }
  w.f64(history.cumulative_requester_utility);
}

SimResult read_history(ByteReader& r) {
  SimResult history;
  const std::size_t rounds = r.count(32);
  history.rounds.reserve(rounds);
  for (std::size_t t = 0; t < rounds; ++t) {
    RoundRecord record;
    record.round = r.u64();
    record.requester_utility = r.f64();
    record.total_compensation = r.f64();
    record.weighted_feedback = r.f64();
    history.rounds.push_back(record);
  }
  const std::size_t workers = r.count(8);
  history.worker_history.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    const std::size_t series_length = r.count(48);
    std::vector<WorkerRound> series;
    series.reserve(series_length);
    for (std::size_t t = 0; t < series_length; ++t) {
      WorkerRound wr;
      wr.effort = r.f64();
      wr.feedback = r.f64();
      wr.compensation = r.f64();
      wr.worker_utility = r.f64();
      wr.estimated_malicious = r.f64();
      wr.weight = r.f64();
      series.push_back(wr);
    }
    history.worker_history.push_back(std::move(series));
  }
  history.cumulative_requester_utility = r.f64();
  return history;
}

}  // namespace

void encode_requester_config(util::wire::Writer& w,
                             const RequesterConfig& config) {
  w.f64(config.rho);
  w.f64(config.kappa);
  w.f64(config.gamma);
  w.f64(config.mu);
  w.f64(config.beta);
  w.f64(config.omega_malicious);
  w.u64(config.intervals);
  w.f64(config.accuracy_floor);
  w.f64(config.weight_cap);
}

RequesterConfig decode_requester_config(util::wire::Reader& r) {
  RequesterConfig config;
  config.rho = r.f64();
  config.kappa = r.f64();
  config.gamma = r.f64();
  config.mu = r.f64();
  config.beta = r.f64();
  config.omega_malicious = r.f64();
  config.intervals = r.u64();
  config.accuracy_floor = r.f64();
  config.weight_cap = r.f64();
  return config;
}

void encode_policy_config(util::wire::Writer& w,
                          const policy::PolicyConfig& config) {
  w.u8(static_cast<std::uint8_t>(config.kind));
  w.f64(config.payment_cap);
  w.f64(config.zoom_confidence);
  w.u64(config.zoom_max_depth);
  w.u64(config.price_levels);
  w.f64(config.peer_tolerance);
}

policy::PolicyConfig decode_policy_config(util::wire::Reader& r) {
  policy::PolicyConfig config;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(policy::Kind::kPostedPrice)) {
    throw DataError("checkpoint names an unknown policy backend (" +
                    std::to_string(kind) + ")");
  }
  config.kind = static_cast<policy::Kind>(kind);
  config.payment_cap = r.f64();
  config.zoom_confidence = r.f64();
  config.zoom_max_depth = r.u64();
  config.price_levels = r.u64();
  config.peer_tolerance = r.f64();
  return config;
}

void encode_rng_state(util::wire::Writer& w, const util::RngState& state) {
  for (const std::uint64_t word : state.words) w.u64(word);
  w.u8(state.has_cached_normal ? 1 : 0);
  w.f64(state.cached_normal);
}

util::RngState decode_rng_state(util::wire::Reader& r) {
  util::RngState state;
  for (std::uint64_t& word : state.words) word = r.u64();
  state.has_cached_normal = r.u8() != 0;
  state.cached_normal = r.f64();
  return state;
}

void encode_contract(util::wire::Writer& w,
                     const contract::Contract& contract) {
  if (contract.is_zero()) {
    w.u64(0);
    return;
  }
  const std::size_t knots = contract.intervals() + 1;
  w.u64(knots);
  w.f64(contract.delta());
  for (std::size_t l = 0; l < knots; ++l) w.f64(contract.knot(l));
  for (std::size_t l = 0; l < knots; ++l) w.f64(contract.payment(l));
}

contract::Contract decode_contract(util::wire::Reader& r) {
  const std::size_t knots = r.count(16);
  if (knots == 0) return contract::Contract{};
  const double delta = r.f64();
  std::vector<double> feedback_knots;
  std::vector<double> payments;
  feedback_knots.reserve(knots);
  payments.reserve(knots);
  for (std::size_t l = 0; l < knots; ++l) feedback_knots.push_back(r.f64());
  for (std::size_t l = 0; l < knots; ++l) payments.push_back(r.f64());
  return contract::Contract(delta, std::move(feedback_knots),
                            std::move(payments));
}

std::string encode_checkpoint(const SimCheckpoint& checkpoint,
                              std::uint32_t version) {
  check_version(version);
  ByteWriter w;
  write_config(w, checkpoint.config, version);
  w.u64(checkpoint.workers.size());
  for (const SimWorkerSpec& spec : checkpoint.workers) write_worker(w, spec);
  w.u64(checkpoint.next_round);
  encode_rng_state(w, checkpoint.rng);
  w.f64_vec(checkpoint.est_accuracy);
  w.f64_vec(checkpoint.est_malicious);
  w.u64(checkpoint.contracts.size());
  for (const contract::Contract& c : checkpoint.contracts) {
    encode_contract(w, c);
  }
  w.f64_vec(checkpoint.last_feedback);
  write_history(w, checkpoint.history);
  if (version >= 3) {
    w.str(checkpoint.policy_state);
  } else {
    CCD_CHECK_MSG(checkpoint.policy_state.empty(),
                  "v2 checkpoints cannot carry learner state");
  }
  return w.take();
}

SimCheckpoint decode_checkpoint(const std::string& payload,
                                std::uint32_t version) {
  check_version(version);
  try {
    ByteReader r(payload);
    SimCheckpoint checkpoint;
    checkpoint.config = read_config(r, version);
    const std::size_t workers = r.count(64);
    checkpoint.workers.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      checkpoint.workers.push_back(read_worker(r));
    }
    checkpoint.next_round = r.u64();
    checkpoint.rng = decode_rng_state(r);
    checkpoint.est_accuracy = r.f64_vec();
    checkpoint.est_malicious = r.f64_vec();
    const std::size_t contracts = r.count(8);
    checkpoint.contracts.reserve(contracts);
    for (std::size_t i = 0; i < contracts; ++i) {
      checkpoint.contracts.push_back(decode_contract(r));
    }
    checkpoint.last_feedback = r.f64_vec();
    checkpoint.history = read_history(r);
    if (version >= 3) checkpoint.policy_state = r.str();
    r.finish();

    const std::size_t n = checkpoint.workers.size();
    CCD_CHECK_MSG(n >= 1, "checkpoint has no workers");
    CCD_CHECK_MSG(checkpoint.est_accuracy.size() == n &&
                      checkpoint.est_malicious.size() == n &&
                      checkpoint.contracts.size() == n &&
                      checkpoint.last_feedback.size() == n &&
                      checkpoint.history.worker_history.size() == n,
                  "checkpoint per-worker state is inconsistent");
    CCD_CHECK_MSG(checkpoint.history.rounds.size() == checkpoint.next_round,
                  "checkpoint history does not match its round counter");
    checkpoint.config.validate();
    Requester::validate(checkpoint.config.requester,
                        checkpoint.config.ema_alpha, checkpoint.est_accuracy,
                        checkpoint.est_malicious);
    return checkpoint;
  } catch (const DataError&) {
    throw;
  } catch (const Error& e) {
    // Checksum-valid but semantically broken payloads (e.g. a contract
    // whose knots fail validation) are still data corruption to callers.
    throw DataError(std::string("invalid checkpoint payload: ") + e.what());
  }
}

void save_checkpoint(const std::string& path, const SimCheckpoint& checkpoint,
                     const util::RetryPolicy& retry) {
  const std::string payload = encode_checkpoint(checkpoint);
  util::with_retry("checkpoint_write", retry, [&](std::size_t attempt) {
    CCD_FAULT_POINT("io.checkpoint_write", attempt, DataError);
    util::write_framed_file(path, kTag, SimCheckpoint::kVersion, payload);
  });
}

SimCheckpoint load_checkpoint(const std::string& path,
                              const util::RetryPolicy& retry) {
  return util::with_retry("checkpoint_read", retry, [&](std::size_t attempt) {
    CCD_FAULT_POINT("io.checkpoint_read", attempt, DataError);
    const util::FramedPayload framed = util::read_framed_file(
        path, kTag, SimCheckpoint::kMinReadVersion, SimCheckpoint::kVersion);
    return decode_checkpoint(framed.payload, framed.version);
  });
}

}  // namespace ccd::core
