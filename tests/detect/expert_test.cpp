#include "detect/expert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/generator.hpp"
#include "data/metrics.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ccd::detect {
namespace {

class ExpertPanelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = data::generate_trace(data::GeneratorParams::small());
    metrics_ = std::make_unique<data::WorkerMetrics>(trace_);
  }
  /// expert[w]: whether worker w is on the panel.
  std::vector<bool> expert_flags(const ExpertPanel& panel) const {
    std::vector<bool> expert(trace_.workers().size(), false);
    for (const data::WorkerId id : panel.experts()) expert[id] = true;
    return expert;
  }

  /// Per product, how many of its reviews the panel's experts wrote.
  std::vector<std::size_t> expert_review_counts(
      const ExpertPanel& panel) const {
    const std::vector<bool> expert = expert_flags(panel);
    std::vector<std::size_t> count(trace_.products().size(), 0);
    for (const data::Review& r : trace_.reviews()) {
      if (expert[r.worker]) ++count[r.product];
    }
    return count;
  }

  data::ReviewTrace trace_;
  std::unique_ptr<data::WorkerMetrics> metrics_;
};

TEST_F(ExpertPanelTest, FindsSomeExperts) {
  const ExpertPanel panel(trace_, *metrics_);
  EXPECT_GT(panel.experts().size(), 0u);
  EXPECT_LT(panel.experts().size(), trace_.workers().size() / 2);
}

TEST_F(ExpertPanelTest, BadgedWorkersQualifyWhenTrusted) {
  const ExpertPanel panel(trace_, *metrics_);
  const std::vector<data::WorkerId>& experts = panel.experts();
  for (const data::Worker& w : trace_.workers()) {
    if (w.expert_badge) {
      EXPECT_NE(std::find(experts.begin(), experts.end(), w.id),
                experts.end());
    }
  }
}

TEST_F(ExpertPanelTest, BadgesIgnoredWhenUntrusted) {
  ExpertConfig config;
  config.trust_badges = false;
  config.min_reviews = 1000000;      // impossible
  config.max_score_deviation = 0.0;  // impossible
  const ExpertPanel panel(trace_, *metrics_, config);
  EXPECT_TRUE(panel.experts().empty());
}

TEST_F(ExpertPanelTest, ExpertsAreMostlyHonest) {
  const ExpertPanel panel(trace_, *metrics_);
  std::size_t malicious = 0;
  for (const data::WorkerId id : panel.experts()) {
    if (trace_.worker(id).true_class != data::WorkerClass::kHonest) {
      ++malicious;
    }
  }
  // Malicious workers are inaccurate by construction; the accuracy gate
  // should keep nearly all of them out.
  EXPECT_LE(malicious, panel.experts().size() / 10);
}

TEST_F(ExpertPanelTest, ConsensusTracksTrueQuality) {
  const ExpertPanel panel(trace_, *metrics_);
  const std::vector<std::size_t> count = expert_review_counts(panel);
  double err = 0.0;
  std::size_t n = 0;
  for (const data::Product& p : trace_.products()) {
    if (count[p.id] == 0) continue;
    err += std::abs(panel.consensus(p.id) - p.true_quality);
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_LT(err / static_cast<double>(n), 0.75);
}

TEST_F(ExpertPanelTest, ConsensusFallsBackToGlobalMean) {
  const ExpertPanel panel(trace_, *metrics_);
  const std::vector<std::size_t> count = expert_review_counts(panel);
  // Find an uncovered product (there will be many).
  for (const data::Product& p : trace_.products()) {
    if (count[p.id] == 0) {
      const double c = panel.consensus(p.id);
      EXPECT_GE(c, 1.0);
      EXPECT_LE(c, 5.0);
      return;
    }
  }
  FAIL() << "expected at least one uncovered product";
}

// consensus() is one stored value per product: the expert mean where an
// expert reviewed the product, else the global mean of every expert score.
// Both are recomputed here from the raw expert reviews, in trace order.
TEST_F(ExpertPanelTest, ConsensusIsExpertScoreOrGlobalMean) {
  const ExpertPanel panel(trace_, *metrics_);
  const std::size_t products = trace_.products().size();
  const std::vector<bool> expert = expert_flags(panel);
  std::vector<double> sum(products, 0.0);
  std::vector<std::size_t> count(products, 0);
  util::Accumulator global;
  for (const data::Review& r : trace_.reviews()) {
    if (!expert[r.worker]) continue;
    sum[r.product] += r.score;
    ++count[r.product];
    global.add(r.score);
  }
  ASSERT_GT(global.count(), 0u);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::size_t covered = 0;
  for (const data::Product& p : trace_.products()) {
    const double want = count[p.id] > 0
                            ? sum[p.id] / static_cast<double>(count[p.id])
                            : global.mean();
    EXPECT_EQ(bits(panel.consensus(p.id)), bits(want)) << "product " << p.id;
    if (count[p.id] > 0) ++covered;
  }
  EXPECT_GT(covered, 0u);
  EXPECT_LT(covered, products);
  EXPECT_THROW(panel.consensus(static_cast<data::ProductId>(products)), Error);
}

TEST_F(ExpertPanelTest, CoverageIsAFraction) {
  const ExpertPanel panel(trace_, *metrics_);
  EXPECT_GE(panel.coverage(), 0.0);
  EXPECT_LE(panel.coverage(), 1.0);
}

}  // namespace
}  // namespace ccd::detect
