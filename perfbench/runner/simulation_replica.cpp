// The durable simulation-session path, replayed in-process for the
// per-layer metrics of a traced ingest_stream run: one 50-worker BiP
// session (core::preset_fleet, 10 malicious) stepped to mid-campaign, then
// each round followed by the checkpoint work a ccdd session with
// checkpoint_every=1 does after it: snapshot, encode, framed write.
//
// It is not a workload of its own: a closed loop of 0.6 ms simulation
// rounds through ccdd had a p99 dominated by host scheduling stalls
// (1.4-3.5 ms over ten seeds), and durable sessions would have to fsync
// their checkpoints inside the benchmark's checkout, on whatever disk
// that is.
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/stackelberg.hpp"
#include "util/atomic_file.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ccd;

constexpr std::size_t kWorkers = 50;
constexpr std::size_t kMalicious = 10;
// By round 600 the checkpoint, which still carries the whole round history
// (~2.4 KB more per round), is ~1.5 MB.
constexpr std::size_t kWarmupRounds = 600;
constexpr std::size_t kTracedRounds = 100;

/// Marks the end of each round's redesign; changes nothing.
struct PostedMarker : core::RoundHook {
  std::int64_t posted_ns = 0;
  void on_contracts_posted(std::size_t, bool, std::vector<contract::Contract>&,
                           const std::vector<double>&, util::Rng&) override {
    posted_ns = now_ns();
  }
};

core::StackelbergSimulator make_simulator(std::uint64_t seed) {
  core::SimConfig config;
  config.rounds = kWarmupRounds + kTracedRounds;
  config.seed = seed;
  return core::StackelbergSimulator(core::preset_fleet(kWorkers, kMalicious),
                                    config);
}

/// Final cumulative utility and posted contracts, bitwise.
std::string final_state(const core::StackelbergSimulator& sim) {
  const double utility = sim.history().cumulative_requester_utility;
  util::wire::Writer w;
  w.f64(utility);
  for (const contract::Contract& c : sim.contracts()) {
    core::encode_contract(w, c);
  }
  return w.take();
}

}  // namespace

void trace_simulation_session(std::uint64_t seed, Record& record) {
  core::StackelbergSimulator reference = make_simulator(seed);
  reference.run();

  core::StackelbergSimulator sim = make_simulator(seed);
  sim.step(kWarmupRounds);
  PostedMarker marker;
  sim.set_round_hook(&marker);
  const std::string dir = "ckpt-replica";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/replica.sim.ckpt";
  Tracer& tracer = record.tracer;
  for (std::size_t t = kWarmupRounds; !sim.finished(); ++t) {
    const std::int64_t a = now_ns();
    sim.step(1);
    const std::int64_t b = now_ns();
    const core::SimCheckpoint snapshot = sim.snapshot();
    const std::int64_t c = now_ns();
    const std::string payload = core::encode_checkpoint(snapshot);
    const std::int64_t d = now_ns();
    util::write_framed_file(path, "SCKP", core::SimCheckpoint::kVersion,
                            payload);
    const std::int64_t e = now_ns();
    const int round = tracer.add("core.round", -1, a, e);
    tracer.add("policy.post", round, a, marker.posted_ns);
    tracer.add("core.physics", round, marker.posted_ns, b);
    tracer.add("core.checkpoint.snapshot", round, b, c);
    tracer.add("core.checkpoint.encode", round, c, d);
    tracer.add("util.atomic_file.write", round, d, e);
    record.checkpoint_bytes.emplace_back(static_cast<double>(t),
                                         static_cast<double>(payload.size()));
  }
  std::filesystem::remove_all(dir);
  record.check("simulation_replica.matches_simulator_run",
               final_state(sim) == final_state(reference),
               "traced, checkpointed rounds against StackelbergSimulator::run");
}

}  // namespace perfbench
