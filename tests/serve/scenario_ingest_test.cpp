// Adversarial scenarios over the serve ingest path: a Sybil-swarm
// scenario's observation feed (scenario::IngestFeed) drives an ingest
// session through serve::Engine, and the outcome must reconcile exactly
// with the same feed driven into a bare serve::Session in-process —
// bitwise-identical posted contracts after every round, bitwise-identical
// cumulative requester utility, and `ccd.serve.*` counters that account
// for every request the scenario issued.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "util/config.hpp"
#include "util/metrics.hpp"

namespace ccd::serve {
namespace {

constexpr std::uint64_t kRounds = 8;

scenario::ScenarioSpec sybil_spec() {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::preset("sybil");
  util::ParamMap overrides;
  overrides.set("workers", "10");
  overrides.set("malicious", "3");
  overrides.set("communities", "2");
  overrides.set("sybil", "3");
  overrides.set("rounds", std::to_string(kRounds));
  overrides.set("seed", "11");
  spec.apply_params(overrides);
  return spec;
}

OpenParams ingest_open(std::uint64_t workers) {
  OpenParams params;
  params.mode = SessionMode::kIngest;
  params.rounds = 0;  // unbounded
  params.workers = workers;
  params.refit_every = 4;
  return params;
}

std::vector<IngestObservation> to_wire(
    const std::vector<scenario::IngestFeed::Observation>& observations) {
  std::vector<IngestObservation> wire(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    wire[i].effort = observations[i].effort;
    wire[i].feedback = observations[i].feedback;
    wire[i].accuracy_sample = observations[i].accuracy_sample;
  }
  return wire;
}

void expect_contracts_equal(const std::vector<contract::Contract>& a,
                            const std::vector<contract::Contract>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].is_zero(), b[i].is_zero()) << "worker " << i;
    if (a[i].is_zero()) continue;
    ASSERT_EQ(a[i].intervals(), b[i].intervals()) << "worker " << i;
    for (std::size_t l = 0; l <= a[i].intervals(); ++l) {
      EXPECT_EQ(a[i].knot(l), b[i].knot(l)) << "worker " << i;
      EXPECT_EQ(a[i].payment(l), b[i].payment(l)) << "worker " << i;
    }
  }
}

std::uint64_t counter_value(const std::string& name) {
  namespace metrics = util::metrics;
  for (const metrics::MetricSnapshot& m : metrics::registry().snapshot()) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

TEST(ScenarioIngestTest, EngineFeedMatchesBareSessionBitwise) {
  const scenario::ScenarioSpec spec = sybil_spec();
  const std::uint64_t n = spec.workers + spec.sybil;

  // Reference: the same scenario feed into a bare Session, no engine.
  std::vector<std::vector<contract::Contract>> reference_contracts;
  double reference_utility = 0.0;
  {
    Session session("ref", ingest_open(n), Session::Env{});
    scenario::IngestFeed feed(spec);
    ASSERT_EQ(feed.worker_count(), n);
    for (std::uint64_t t = 0; t < kRounds; ++t) {
      const auto observations = feed.round(session.contracts());
      session.ingest(to_wire(observations), nullptr);
      reference_contracts.push_back(session.contracts());
    }
    reference_utility = session.status().cumulative_requester_utility;
  }
  // The feed produced real activity and the session designed from it.
  EXPECT_NE(reference_utility, 0.0);
  for (const contract::Contract& c : reference_contracts.back()) {
    EXPECT_FALSE(c.is_zero());
  }

  // Same scenario over the engine's request path, counters reconciled.
  const std::uint64_t submitted0 = counter_value("ccd.serve.submitted");
  const std::uint64_t responses0 = counter_value("ccd.serve.responses");
  const std::uint64_t rounds0 = counter_value("ccd.serve.rounds");

  EngineConfig config;
  config.worker_threads = 2;
  Engine engine(config);
  std::uint64_t issued = 0;

  Request open;
  open.op = Op::kOpen;
  open.session = "swarm";
  open.open = ingest_open(n);
  ASSERT_EQ(engine.call(open).status, Status::kOk);
  ++issued;

  scenario::IngestFeed feed(spec);
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    Request get;
    get.op = Op::kContracts;
    get.session = "swarm";
    const Response posted = engine.call(get);
    ASSERT_EQ(posted.status, Status::kOk) << posted.message;
    ++issued;

    Request ingest;
    ingest.op = Op::kIngest;
    ingest.session = "swarm";
    ingest.observations = to_wire(feed.round(posted.contracts));
    const Response r = engine.call(ingest);
    ASSERT_EQ(r.status, Status::kOk) << r.message;
    ++issued;
    EXPECT_EQ(r.redesigned, (t + 1) % 4 == 0);
    expect_contracts_equal(engine.call(get).contracts,
                           reference_contracts[static_cast<std::size_t>(t)]);
    ++issued;
  }

  Request status;
  status.op = Op::kStatus;
  status.session = "swarm";
  const Response final_status = engine.call(status);
  ASSERT_EQ(final_status.status, Status::kOk);
  ++issued;
  // The per-cell score of the wire run is the in-process score, exactly.
  EXPECT_EQ(final_status.session.cumulative_requester_utility,
            reference_utility);
  EXPECT_EQ(final_status.session.next_round, kRounds);

  // Counter reconciliation: every request accounted for, every ingested
  // round counted.
  EXPECT_EQ(counter_value("ccd.serve.submitted") - submitted0, issued);
  EXPECT_EQ(counter_value("ccd.serve.responses") - responses0, issued);
  EXPECT_EQ(counter_value("ccd.serve.rounds") - rounds0, kRounds);
}

TEST(ScenarioIngestTest, WrongArityFeedIsRefused) {
  const scenario::ScenarioSpec spec = sybil_spec();
  Engine engine(EngineConfig{});
  Request open;
  open.op = Op::kOpen;
  open.session = "swarm";
  open.open = ingest_open(spec.workers);  // forgot the sybil identities
  ASSERT_EQ(engine.call(open).status, Status::kOk);

  scenario::IngestFeed feed(spec);
  Request ingest;
  ingest.op = Op::kIngest;
  ingest.session = "swarm";
  ingest.observations = to_wire(feed.round({}));
  EXPECT_EQ(engine.call(ingest).status, Status::kConfigError);
}

}  // namespace
}  // namespace ccd::serve
