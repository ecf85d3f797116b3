#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/generator.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ccd::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new data::ReviewTrace(
        data::generate_trace(data::GeneratorParams::small()));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static data::ReviewTrace* trace_;
};

data::ReviewTrace* PipelineTest::trace_ = nullptr;

TEST_F(PipelineTest, ProducesOutcomeForEveryWorker) {
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  ASSERT_EQ(r.workers.size(), trace_->workers().size());
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    EXPECT_EQ(r.workers[i].id, i);
    EXPECT_EQ(r.workers[i].true_class, trace_->worker(i).true_class);
  }
}

TEST_F(PipelineTest, SubproblemsPartitionWorkers) {
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  std::vector<int> covered(trace_->workers().size(), 0);
  for (const SubproblemOutcome& sub : r.subproblems) {
    for (const data::WorkerId id : r.workers_of(sub)) ++covered[id];
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_EQ(covered[i], 1) << "worker " << i;
  }
}

TEST_F(PipelineTest, TotalsMatchSubproblemSums) {
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  double utility = 0.0;
  double compensation = 0.0;
  for (const SubproblemOutcome& sub : r.subproblems) {
    utility += sub.design.requester_utility;
    compensation += sub.design.response.compensation;
  }
  EXPECT_NEAR(r.total_requester_utility, utility, 1e-6);
  EXPECT_NEAR(r.total_compensation, compensation, 1e-6);
}

TEST_F(PipelineTest, PerWorkerSharesSumToSubproblemTotals) {
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  for (const SubproblemOutcome& sub : r.subproblems) {
    double share_sum = 0.0;
    for (const data::WorkerId id : r.workers_of(sub)) {
      share_sum += r.workers[id].compensation;
    }
    EXPECT_NEAR(share_sum, sub.design.response.compensation, 1e-9);
  }
}

TEST_F(PipelineTest, CommunitiesShareOneContract) {
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  for (std::size_t c = 0; c < r.collusion.communities.size(); ++c) {
    const auto& members = r.collusion.communities[c].members;
    const std::size_t sub = r.workers[members.front()].subproblem;
    for (const data::WorkerId id : members) {
      EXPECT_EQ(r.workers[id].subproblem, sub);
    }
    EXPECT_EQ(r.workers_of(r.subproblems[sub]).size(), members.size());
  }
}

// workers_of keeps no view: a result moved into a new object, with the
// source destroyed, and a copy of that, with the moved-to result destroyed
// too, still list every subproblem's workers (a view into the old storage
// would read freed memory, which the address-sanitizer build reports).
TEST_F(PipelineTest, WorkersOfSurvivesMovesAndCopies) {
  auto source =
      std::make_unique<PipelineResult>(run_pipeline(*trace_, PipelineConfig{}));
  ASSERT_FALSE(source->collusion.communities.empty());
  std::vector<std::vector<data::WorkerId>> expected;
  for (const SubproblemOutcome& sub : source->subproblems) {
    const std::span<const data::WorkerId> ids = source->workers_of(sub);
    expected.emplace_back(ids.begin(), ids.end());
  }
  const auto expect_lists = [&](const PipelineResult& r) {
    ASSERT_EQ(r.subproblems.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const std::span<const data::WorkerId> ids =
          r.workers_of(r.subproblems[i]);
      EXPECT_EQ(std::vector<data::WorkerId>(ids.begin(), ids.end()),
                expected[i])
          << "subproblem " << i;
    }
  };
  auto moved = std::make_unique<PipelineResult>(std::move(*source));
  source.reset();
  expect_lists(*moved);
  const PipelineResult copy = *moved;
  moved.reset();
  expect_lists(copy);
}

TEST_F(PipelineTest, DetectedClassesAreConsistentWithCollusion) {
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  for (const WorkerOutcome& w : r.workers) {
    if (w.detected_class == DetectedClass::kCollusiveMalicious) {
      EXPECT_GE(r.collusion.community_of[w.id], 0);
      EXPECT_GE(w.partners, 1u);
    } else {
      EXPECT_EQ(r.collusion.community_of[w.id], -1);
      EXPECT_EQ(w.partners, 0u);
    }
  }
}

TEST_F(PipelineTest, HonestWorkersEarnMoreThanMalicious) {
  // Fig. 8(b)'s ordering on means: honest above both malicious classes.
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  const auto mean_comp = [&](data::WorkerClass cls) {
    const auto v = r.compensations_of_class(cls);
    double total = 0.0;
    for (const double x : v) total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
  };
  const double honest = mean_comp(data::WorkerClass::kHonest);
  EXPECT_GT(honest, mean_comp(data::WorkerClass::kNonCollusiveMalicious));
  EXPECT_GT(honest, mean_comp(data::WorkerClass::kCollusiveMalicious));
}

TEST_F(PipelineTest, DynamicBeatsExclusionBaseline) {
  // Fig. 8(c): the dynamic contract extracts extra value from usable
  // malicious workers that blanket exclusion throws away.
  PipelineConfig dynamic;
  PipelineConfig exclusion;
  exclusion.strategy = PricingStrategy::kExcludeMalicious;
  const double ours = run_pipeline(*trace_, dynamic).total_requester_utility;
  const double theirs =
      run_pipeline(*trace_, exclusion).total_requester_utility;
  EXPECT_GT(ours, theirs);
}

TEST_F(PipelineTest, ExclusionZeroesSuspectedMalicious) {
  PipelineConfig config;
  config.strategy = PricingStrategy::kExcludeMalicious;
  const PipelineResult r = run_pipeline(*trace_, config);
  for (const WorkerOutcome& w : r.workers) {
    if (w.detected_class != DetectedClass::kHonest) {
      EXPECT_TRUE(w.excluded);
      EXPECT_DOUBLE_EQ(w.compensation, 0.0);
      EXPECT_DOUBLE_EQ(w.requester_utility, 0.0);
    }
  }
  EXPECT_GT(r.excluded_workers, 0u);
}

TEST_F(PipelineTest, FixedPaymentStrategyRuns) {
  PipelineConfig config;
  config.strategy = PricingStrategy::kFixedPayment;
  config.fixed_payment = 2.0;
  config.fixed_threshold_effort = 1.0;
  const PipelineResult r = run_pipeline(*trace_, config);
  // Accepting workers earn exactly the fixed payment (individuals).
  for (const SubproblemOutcome& sub : r.subproblems) {
    if (r.workers_of(sub).size() == 1 &&
        sub.design.response.compensation > 0.0) {
      EXPECT_DOUBLE_EQ(sub.design.response.compensation, 2.0);
    }
  }
}

TEST_F(PipelineTest, FixedPaymentUnderperformsDynamic) {
  PipelineConfig dynamic;
  PipelineConfig fixed;
  fixed.strategy = PricingStrategy::kFixedPayment;
  fixed.fixed_payment = 2.0;
  fixed.fixed_threshold_effort = 1.0;
  EXPECT_GT(run_pipeline(*trace_, dynamic).total_requester_utility,
            run_pipeline(*trace_, fixed).total_requester_utility);
}

TEST_F(PipelineTest, GroundTruthLabelsImproveClustering) {
  PipelineConfig config;
  config.use_ground_truth_labels = true;
  const PipelineResult r = run_pipeline(*trace_, config);
  // With ground-truth labels the clustering must recover the generator's
  // planted communities exactly.
  EXPECT_EQ(r.collusion.communities.size(),
            data::GeneratorParams::small().community_sizes.size());
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  const PipelineResult a = run_pipeline(*trace_, PipelineConfig{});
  const PipelineResult b = run_pipeline(*trace_, PipelineConfig{});
  EXPECT_DOUBLE_EQ(a.total_requester_utility, b.total_requester_utility);
  EXPECT_DOUBLE_EQ(a.total_compensation, b.total_compensation);
}

TEST_F(PipelineTest, SingleThreadMatchesParallel) {
  PipelineConfig serial;
  serial.threads = 1;
  PipelineConfig parallel;
  parallel.threads = 4;
  const PipelineResult a = run_pipeline(*trace_, serial);
  const PipelineResult b = run_pipeline(*trace_, parallel);
  EXPECT_DOUBLE_EQ(a.total_requester_utility, b.total_requester_utility);
  EXPECT_DOUBLE_EQ(a.total_compensation, b.total_compensation);
}

TEST_F(PipelineTest, LowerMuRaisesCompensation) {
  // Fig. 8(b) observation (1): a generous requester (lower mu) pays more.
  PipelineConfig generous;
  generous.requester.mu = 0.8;
  PipelineConfig stingy;
  stingy.requester.mu = 1.0;
  EXPECT_GE(run_pipeline(*trace_, generous).total_compensation,
            run_pipeline(*trace_, stingy).total_compensation - 1e-9);
}

TEST_F(PipelineTest, DesignCacheCollapsesSweeps) {
  // Workers of one detected class share a weight-independent spec, so the
  // solve stage needs far fewer k-sweeps than subproblems.
  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  EXPECT_EQ(r.design_cache.lookups,
            r.design_cache.hits + r.design_cache.misses);
  EXPECT_LE(r.design_cache.lookups, r.subproblems.size());
  EXPECT_GT(r.design_cache.hits, 0u);
  EXPECT_LT(r.design_cache.misses, r.design_cache.lookups);
  EXPECT_GT(r.design_cache.sweep_steps_avoided, 0u);
}

TEST_F(PipelineTest, RunsNestedInsideAPoolTask) {
  // The solve stage reuses the shared pool; invoking the pipeline from
  // inside a shared-pool task must complete (reentrant parallel_for) and
  // produce identical results.
  auto future = util::shared_pool().submit(
      [] { return run_pipeline(*trace_, PipelineConfig{}); });
  const PipelineResult nested = future.get();
  const PipelineResult direct = run_pipeline(*trace_, PipelineConfig{});
  EXPECT_DOUBLE_EQ(nested.total_requester_utility,
                   direct.total_requester_utility);
  EXPECT_DOUBLE_EQ(nested.total_compensation, direct.total_compensation);
}

TEST_F(PipelineTest, StageSpansAreDisjointAndEachRecordsOnce) {
  // Each stage records one ccd.pipeline.<stage>_us span per call, and the
  // stages run one after another inside the call's total.
  namespace metrics = util::metrics;
  metrics::set_enabled(true);
  const std::vector<std::string> stages = {
      "sanitize", "detect", "cluster", "fit", "decompose", "solve", "total"};
  const auto span_count = [](const std::string& stage) {
    return metrics::registry()
        .histogram("ccd.pipeline." + stage + "_us")
        .snapshot()
        .count;
  };
  std::vector<std::uint64_t> before;
  for (const std::string& stage : stages) before.push_back(span_count(stage));

  const PipelineResult r = run_pipeline(*trace_, PipelineConfig{});
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(span_count(stages[i]) - before[i], 1u) << stages[i];
  }
  const StageTimings& t = r.timings;
  EXPECT_GT(t.fit_s, 0.0);
  EXPECT_GT(t.decompose_s, 0.0);
  EXPECT_LE(t.sanitize_s + t.detect_s + t.cluster_s + t.fit_s +
                t.decompose_s + t.solve_s,
            t.total_s);
  EXPECT_NE(t.to_string().find(" decompose="), std::string::npos);
}

TEST_F(PipelineTest, DisarmedMetricsRecordNoSpansButKeepTimingsAndResults) {
  // set_enabled(false) is the one way to switch metrics off: no stage
  // span is recorded, yet StageTimings are filled and the result is the
  // armed run's.
  namespace metrics = util::metrics;
  const std::vector<std::string> stages = {
      "sanitize", "detect", "cluster", "fit", "decompose", "solve", "total"};
  const auto span_count = [](const std::string& stage) {
    return metrics::registry()
        .histogram("ccd.pipeline." + stage + "_us")
        .snapshot()
        .count;
  };
  metrics::set_enabled(true);
  const PipelineResult armed = run_pipeline(*trace_, PipelineConfig{});
  std::vector<std::uint64_t> before;
  for (const std::string& stage : stages) before.push_back(span_count(stage));

  metrics::set_enabled(false);
  const PipelineResult disarmed = run_pipeline(*trace_, PipelineConfig{});
  metrics::set_enabled(true);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(span_count(stages[i]), before[i]) << stages[i];
  }

  const StageTimings& t = disarmed.timings;
  EXPECT_GT(t.fit_s, 0.0);
  EXPECT_GT(t.decompose_s, 0.0);
  EXPECT_GT(t.solve_s, 0.0);
  EXPECT_GT(t.total_s, 0.0);
  EXPECT_EQ(disarmed.total_requester_utility, armed.total_requester_utility);
  EXPECT_EQ(disarmed.total_compensation, armed.total_compensation);
  EXPECT_EQ(disarmed.excluded_workers, armed.excluded_workers);
  ASSERT_EQ(disarmed.workers.size(), armed.workers.size());
  for (std::size_t i = 0; i < armed.workers.size(); ++i) {
    EXPECT_EQ(disarmed.workers[i].compensation, armed.workers[i].compensation)
        << "worker " << i;
    EXPECT_EQ(disarmed.workers[i].effort, armed.workers[i].effort)
        << "worker " << i;
  }
}

TEST(PipelineValidationTest, RequiresIndexes) {
  data::ReviewTrace t;
  t.add_worker({0, data::WorkerClass::kHonest, data::kNoCommunity, 1.0, false});
  EXPECT_THROW(run_pipeline(t, PipelineConfig{}), Error);
}

}  // namespace
}  // namespace ccd::core
