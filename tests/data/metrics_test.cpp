#include "data/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "data/generator.hpp"
#include "util/error.hpp"

namespace ccd::data {
namespace {

ReviewTrace handmade_trace() {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  t.add_worker({1, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  t.add_product({0, 3.0});
  // Worker 0: upvotes 4 and 8 -> expertise 6. Lengths 100, 200.
  t.add_review({0, 0, 0, 0, 3.0, 100, 4, true});
  t.add_review({1, 0, 0, 1, 3.0, 200, 8, true});
  // Worker 1: upvotes 2 -> expertise 2. Length 300.
  t.add_review({2, 1, 0, 0, 3.0, 300, 2, true});
  t.build_indexes();
  return t;
}

TEST(WorkerMetricsTest, ExpertiseIsMeanUpvotes) {
  const ReviewTrace t = handmade_trace();
  const WorkerMetrics m(t);
  EXPECT_DOUBLE_EQ(m.expertise(0), 6.0);
  EXPECT_DOUBLE_EQ(m.expertise(1), 2.0);
}

TEST(WorkerMetricsTest, EffortIsNormalizedExpertiseTimesLength) {
  const ReviewTrace t = handmade_trace();
  MetricsConfig config;
  config.target_mean_effort = 3.0;
  const WorkerMetrics m(t, config);
  // Raw efforts: 600, 1200, 600 -> mean 800; scale = 3/800.
  EXPECT_DOUBLE_EQ(m.effort_level(0), 600.0 * 3.0 / 800.0);
  EXPECT_DOUBLE_EQ(m.effort_level(1), 1200.0 * 3.0 / 800.0);
  // Global mean equals the target.
  const double mean =
      (m.effort_level(0) + m.effort_level(1) + m.effort_level(2)) / 3.0;
  EXPECT_NEAR(mean, 3.0, 1e-12);
}

TEST(WorkerMetricsTest, FeedbackIsUpvotes) {
  const ReviewTrace t = handmade_trace();
  const WorkerMetrics m(t);
  EXPECT_DOUBLE_EQ(m.feedback(1), 8.0);
}

TEST(WorkerMetricsTest, SamplesOfClassCoverAllClassReviews) {
  const ReviewTrace t = generate_trace(GeneratorParams::small());
  const WorkerMetrics m(t);
  std::size_t total = 0;
  for (const WorkerClass cls :
       {WorkerClass::kHonest, WorkerClass::kNonCollusiveMalicious,
        WorkerClass::kCollusiveMalicious}) {
    total += m.samples_of_class(cls).size();
  }
  EXPECT_EQ(total, t.reviews().size());
}

// samples_of_class computes each sample inline; every sample must equal
// the checked accessors' values bit for bit, in worker-then-review order.
TEST(WorkerMetricsTest, SamplesOfClassMatchAccessorsBitwise) {
  const ReviewTrace t = generate_trace(GeneratorParams::small());
  const WorkerMetrics m(t);
  for (const WorkerClass cls :
       {WorkerClass::kHonest, WorkerClass::kNonCollusiveMalicious,
        WorkerClass::kCollusiveMalicious}) {
    const std::vector<EffortSample> samples = m.samples_of_class(cls);
    std::size_t j = 0;
    for (const Worker& w : t.workers()) {
      if (w.true_class != cls) continue;
      for (const ReviewId rid : t.reviews_of_worker(w.id)) {
        ASSERT_LT(j, samples.size());
        const EffortSample& s = samples[j++];
        EXPECT_EQ(s.worker, w.id);
        EXPECT_EQ(s.review, rid);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.effort),
                  std::bit_cast<std::uint64_t>(m.effort_level(rid)));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.feedback),
                  std::bit_cast<std::uint64_t>(m.feedback(rid)));
      }
    }
    EXPECT_EQ(j, samples.size());
  }
}

// class_columns is samples_of_class read as two columns: the same samples,
// in the same order, bit for bit, and sample 0's worker.
TEST(WorkerMetricsTest, ClassColumnsMatchSamplesOfClassBitwise) {
  const ReviewTrace t = generate_trace(GeneratorParams::small());
  const WorkerMetrics m(t);
  for (const WorkerClass cls :
       {WorkerClass::kHonest, WorkerClass::kNonCollusiveMalicious,
        WorkerClass::kCollusiveMalicious}) {
    const std::vector<EffortSample> samples = m.samples_of_class(cls);
    ASSERT_EQ(m.class_sample_count(cls), samples.size());
    ASSERT_FALSE(samples.empty());
    std::vector<double> effort(samples.size());
    std::vector<double> feedback(samples.size());
    EXPECT_EQ(m.class_columns(cls, effort, feedback), samples.front().worker);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(effort[i]),
                std::bit_cast<std::uint64_t>(samples[i].effort));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(feedback[i]),
                std::bit_cast<std::uint64_t>(samples[i].feedback));
    }
    // Columns of any other length are refused.
    std::vector<double> short_column(samples.size() - 1);
    std::vector<double> long_column(samples.size() + 1);
    EXPECT_THROW(m.class_columns(cls, short_column, short_column), Error);
    EXPECT_THROW(m.class_columns(cls, long_column, long_column), Error);
    EXPECT_THROW(m.class_columns(cls, effort, short_column), Error);
  }
}

// The expert panel reads a worker's mean feedback as expertise(); both are
// the same sum in the same order, so they agree bit for bit.
TEST(WorkerMetricsTest, ExpertiseIsMeanFeedbackBitwise) {
  const ReviewTrace t = generate_trace(GeneratorParams::small());
  const WorkerMetrics m(t);
  for (const Worker& w : t.workers()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.expertise(w.id)),
              std::bit_cast<std::uint64_t>(m.mean_feedback_of_worker(w.id)))
        << "worker " << w.id;
  }
}

TEST(WorkerMetricsTest, PerWorkerMeans) {
  const ReviewTrace t = handmade_trace();
  const WorkerMetrics m(t);
  EXPECT_DOUBLE_EQ(m.mean_feedback_of_worker(0), 6.0);
  EXPECT_DOUBLE_EQ(m.mean_feedback_of_worker(1), 2.0);
}

TEST(WorkerMetricsTest, RequiresIndexes) {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  EXPECT_THROW(WorkerMetrics m(t), Error);
}

TEST(WorkerMetricsTest, RejectsNonPositiveTarget) {
  const ReviewTrace t = handmade_trace();
  MetricsConfig config;
  config.target_mean_effort = 0.0;
  EXPECT_THROW(WorkerMetrics(t, config), Error);
}

TEST(WorkerMetricsTest, SimilarEffortAcrossClassesInGeneratedTrace) {
  // Fig. 7's first claim: the three classes expend similar average effort.
  const ReviewTrace t = generate_trace(GeneratorParams::medium());
  const WorkerMetrics m(t);
  const auto mean_effort = [&](WorkerClass cls) {
    const auto samples = m.samples_of_class(cls);
    double total = 0.0;
    for (const EffortSample& s : samples) total += s.effort;
    return total / static_cast<double>(samples.size());
  };
  const double honest = mean_effort(WorkerClass::kHonest);
  const double cm = mean_effort(WorkerClass::kCollusiveMalicious);
  EXPECT_GT(cm, 0.4 * honest);
  EXPECT_LT(cm, 2.5 * honest);
}

}  // namespace
}  // namespace ccd::data
