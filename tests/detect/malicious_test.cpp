#include "detect/malicious.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "data/generator.hpp"
#include "data/metrics.hpp"
#include "util/error.hpp"

namespace ccd::detect {
namespace {

class MaliciousDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = data::generate_trace(data::GeneratorParams::small());
    metrics_ = std::make_unique<data::WorkerMetrics>(trace_);
    experts_ = std::make_unique<ExpertPanel>(trace_, *metrics_);
    detector_ = std::make_unique<MaliciousDetector>(trace_, *experts_);
  }
  data::ReviewTrace trace_;
  std::unique_ptr<data::WorkerMetrics> metrics_;
  std::unique_ptr<ExpertPanel> experts_;
  std::unique_ptr<MaliciousDetector> detector_;
};

TEST_F(MaliciousDetectorTest, ProbabilitiesAreInUnitInterval) {
  for (const data::Worker& w : trace_.workers()) {
    const double p = detector_->probability(w.id);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(MaliciousDetectorTest, MaliciousScoreHigherThanHonest) {
  double honest = 0.0, malicious = 0.0;
  std::size_t hn = 0, mn = 0;
  for (const data::Worker& w : trace_.workers()) {
    if (w.true_class == data::WorkerClass::kHonest) {
      honest += detector_->probability(w.id);
      ++hn;
    } else {
      malicious += detector_->probability(w.id);
      ++mn;
    }
  }
  EXPECT_GT(malicious / static_cast<double>(mn),
            honest / static_cast<double>(hn) + 0.3);
}

TEST_F(MaliciousDetectorTest, ReasonableDetectionQuality) {
  const auto q = detector_->evaluate(trace_, 0.5);
  EXPECT_GT(q.recall(), 0.5);
  EXPECT_GT(q.precision(), 0.7);
  EXPECT_GT(q.f1(), 0.6);
}

TEST_F(MaliciousDetectorTest, FlaggedMatchesThreshold) {
  const auto flagged = detector_->flagged(0.5);
  for (const data::WorkerId id : flagged) {
    EXPECT_GE(detector_->probability(id), 0.5);
  }
  // Complement check on a few workers.
  std::size_t checked = 0;
  for (const data::Worker& w : trace_.workers()) {
    if (detector_->probability(w.id) < 0.5) {
      EXPECT_EQ(std::find(flagged.begin(), flagged.end(), w.id), flagged.end());
      if (++checked > 20) break;
    }
  }
}

TEST_F(MaliciousDetectorTest, ThresholdOneFlagsAlmostNobody) {
  EXPECT_LT(detector_->flagged(1.0).size(), trace_.workers().size() / 20);
}

TEST_F(MaliciousDetectorTest, QualityCountsPartitionWorkers) {
  const auto q = detector_->evaluate(trace_, 0.5);
  EXPECT_EQ(q.true_positives + q.false_positives + q.true_negatives +
                q.false_negatives,
            trace_.workers().size());
}

TEST(MaliciousDetectorQualityTest, DegenerateRatios) {
  MaliciousDetector::Quality q;
  EXPECT_DOUBLE_EQ(q.precision(), 0.0);
  EXPECT_DOUBLE_EQ(q.recall(), 0.0);
  EXPECT_DOUBLE_EQ(q.f1(), 0.0);
  q.true_positives = 3;
  q.false_positives = 1;
  q.false_negatives = 1;
  EXPECT_DOUBLE_EQ(q.precision(), 0.75);
  EXPECT_DOUBLE_EQ(q.recall(), 0.75);
  EXPECT_DOUBLE_EQ(q.f1(), 0.75);
}

TEST_F(MaliciousDetectorTest, OutOfRangeThrows) {
  EXPECT_THROW(detector_->probability(static_cast<data::WorkerId>(
                   trace_.workers().size())),
               Error);
  EXPECT_THROW(detector_->accuracy_distance(static_cast<data::WorkerId>(
                   trace_.workers().size())),
               Error);
}

// evaluate() indexes its probabilities by the given trace's worker ids, so
// a trace with another worker count (here the medium preset's, larger
// than the small preset the detector was built on) must be refused, with
// both sizes named, instead of reading past the probabilities.
TEST_F(MaliciousDetectorTest, EvaluateRefusesATraceOfAnotherSize) {
  const data::ReviewTrace larger =
      data::generate_trace(data::GeneratorParams::medium());
  ASSERT_GT(larger.workers().size(), trace_.workers().size());
  try {
    detector_->evaluate(larger, 0.5);
    FAIL() << "evaluate accepted a trace with more workers";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(larger.workers().size())),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(trace_.workers().size())),
              std::string::npos)
        << what;
  }
  data::ReviewTrace smaller;
  smaller.add_worker({0, data::WorkerClass::kHonest, data::kNoCommunity, 1.0,
                      false});
  smaller.build_indexes();
  EXPECT_THROW(detector_->evaluate(smaller, 0.5), Error);
}

/// Mean |score - consensus| over the worker's reviews, summed in review
/// order: the per-worker scan the detector's single pass must reproduce.
double scanned_distance(const data::ReviewTrace& trace,
                        const ExpertPanel& experts, data::WorkerId id) {
  const auto& review_ids = trace.reviews_of_worker(id);
  if (review_ids.empty()) return MaliciousDetector::kNoReviewsDistance;
  double acc = 0.0;
  for (const data::ReviewId rid : review_ids) {
    const data::Review& r = trace.review(rid);
    acc += std::abs(r.score - experts.consensus(r.product));
  }
  return acc / static_cast<double>(review_ids.size());
}

TEST_F(MaliciousDetectorTest, AccuracyDistanceMatchesPerWorkerScanBitwise) {
  for (const data::Worker& w : trace_.workers()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(detector_->accuracy_distance(w.id)),
              std::bit_cast<std::uint64_t>(
                  scanned_distance(trace_, *experts_, w.id)))
        << "worker " << w.id;
  }
}

TEST(MaliciousDetectorDistanceTest, WorkerWithoutReviewsIsInfinitelyFar) {
  data::ReviewTrace t;
  t.add_worker({0, data::WorkerClass::kHonest, data::kNoCommunity, 1.0, true});
  t.add_worker({1, data::WorkerClass::kHonest, data::kNoCommunity, 1.0, false});
  t.add_product({0, 3.0});
  t.add_product({1, 4.0});
  t.add_review({0, 0, 0, 0, 3.0, 100, 4, true});
  t.add_review({1, 0, 1, 1, 4.5, 100, 4, true});
  t.build_indexes();
  const data::WorkerMetrics metrics(t);
  const ExpertPanel experts(t, metrics);
  const MaliciousDetector detector(t, experts);
  EXPECT_EQ(detector.accuracy_distance(0), scanned_distance(t, experts, 0));
  EXPECT_EQ(detector.accuracy_distance(1),
            MaliciousDetector::kNoReviewsDistance);
}

}  // namespace
}  // namespace ccd::detect
