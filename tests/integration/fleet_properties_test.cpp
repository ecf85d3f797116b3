// Fleet-level property sweeps: pipeline invariants must hold across trace
// shapes (population mix, community structure, seeds) — parameterized over
// generator configurations.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/pipeline.hpp"
#include "data/generator.hpp"

namespace ccd::core {
namespace {

struct FleetShape {
  std::size_t honest;
  std::size_t ncm;
  std::vector<std::size_t> communities;
};

// (shape index resolved via table, seed)
using FleetParam = std::tuple<int, std::uint64_t>;

const FleetShape kShapes[] = {
    {200, 0, {}},                    // purely honest
    {200, 40, {}},                   // honest + lone spammers
    {150, 10, {2, 2, 3}},            // small rings
    {150, 10, {8, 12}},              // big rings
    {60, 30, {2, 2, 2, 2, 2, 2}},    // malicious-heavy
};

class FleetPropertyTest : public ::testing::TestWithParam<FleetParam> {
 protected:
  static const data::ReviewTrace& trace_for(const FleetParam& param) {
    static std::map<FleetParam, data::ReviewTrace> cache;
    const auto it = cache.find(param);
    if (it != cache.end()) return it->second;
    const FleetShape& shape = kShapes[std::get<0>(param)];
    data::GeneratorParams gen = data::GeneratorParams::small();
    gen.n_honest = shape.honest;
    gen.n_ncm = shape.ncm;
    gen.community_sizes = shape.communities;
    gen.seed = std::get<1>(param);
    return cache.emplace(param, data::generate_trace(gen)).first->second;
  }
};

TEST_P(FleetPropertyTest, SubproblemsPartitionAndTotalsAgree) {
  const data::ReviewTrace& trace = trace_for(GetParam());
  const PipelineResult r = run_pipeline(trace, PipelineConfig{});
  std::vector<int> covered(trace.workers().size(), 0);
  double utility = 0.0;
  double pay = 0.0;
  for (const SubproblemOutcome& sub : r.subproblems) {
    for (const data::WorkerId id : r.workers_of(sub)) ++covered[id];
    utility += sub.design.requester_utility;
    pay += sub.design.response.compensation;
  }
  for (const int c : covered) ASSERT_EQ(c, 1);
  EXPECT_NEAR(r.total_requester_utility, utility, 1e-6);
  EXPECT_NEAR(r.total_compensation, pay, 1e-6);
}

TEST_P(FleetPropertyTest, NonExcludedDesignsRespectBounds) {
  const data::ReviewTrace& trace = trace_for(GetParam());
  const PipelineResult r = run_pipeline(trace, PipelineConfig{});
  for (const SubproblemOutcome& sub : r.subproblems) {
    if (sub.design.excluded) continue;
    EXPECT_LE(sub.design.requester_utility, sub.design.upper_bound + 1e-6);
    EXPECT_GE(sub.design.requester_utility, sub.design.lower_bound - 1e-6);
  }
}

TEST_P(FleetPropertyTest, DynamicAtLeastMatchesExclusion) {
  const data::ReviewTrace& trace = trace_for(GetParam());
  PipelineConfig exclusion;
  exclusion.strategy = PricingStrategy::kExcludeMalicious;
  const double ours =
      run_pipeline(trace, PipelineConfig{}).total_requester_utility;
  const double theirs =
      run_pipeline(trace, exclusion).total_requester_utility;
  EXPECT_GE(ours, theirs - 1e-6);
}

TEST_P(FleetPropertyTest, HonestMeanPayTopsMaliciousWhenMaliciousExist) {
  const data::ReviewTrace& trace = trace_for(GetParam());
  const FleetShape& shape = kShapes[std::get<0>(GetParam())];
  if (shape.ncm == 0 && shape.communities.empty()) {
    GTEST_SKIP() << "no malicious workers in this shape";
  }
  const PipelineResult r = run_pipeline(trace, PipelineConfig{});
  const auto mean_of = [&](data::WorkerClass cls) {
    const auto v = r.compensations_of_class(cls);
    double total = 0.0;
    for (const double x : v) total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
  };
  const double honest = mean_of(data::WorkerClass::kHonest);
  if (shape.ncm > 0) {
    EXPECT_GT(honest, mean_of(data::WorkerClass::kNonCollusiveMalicious));
  }
  if (!shape.communities.empty()) {
    EXPECT_GT(honest, mean_of(data::WorkerClass::kCollusiveMalicious));
  }
}

TEST_P(FleetPropertyTest, ThreadCountDoesNotChangeResults) {
  const data::ReviewTrace& trace = trace_for(GetParam());
  PipelineConfig serial;
  serial.threads = 1;
  PipelineConfig parallel;
  parallel.threads = 8;
  const PipelineResult a = run_pipeline(trace, serial);
  const PipelineResult b = run_pipeline(trace, parallel);
  EXPECT_DOUBLE_EQ(a.total_requester_utility, b.total_requester_utility);
  EXPECT_DOUBLE_EQ(a.total_compensation, b.total_compensation);
}

TEST_P(FleetPropertyTest, GroundTruthLabelsRecoverPlantedStructure) {
  const data::ReviewTrace& trace = trace_for(GetParam());
  const FleetShape& shape = kShapes[std::get<0>(GetParam())];
  PipelineConfig config;
  config.use_ground_truth_labels = true;
  const PipelineResult r = run_pipeline(trace, config);
  EXPECT_EQ(r.collusion.communities.size(), shape.communities.size());
  EXPECT_EQ(r.collusion.non_collusive.size(), shape.ncm);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FleetPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1u, 1234u)));

}  // namespace
}  // namespace ccd::core
