#include "data/analytics.hpp"

#include <gtest/gtest.h>

#include "data/generator.hpp"
#include "util/error.hpp"

namespace ccd::data {
namespace {

class AnalyticsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new ReviewTrace(generate_trace(GeneratorParams::small()));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static ReviewTrace* trace_;
};

ReviewTrace* AnalyticsTest::trace_ = nullptr;

TEST_F(AnalyticsTest, ProductSummariesCoverReviewedProducts) {
  const auto summaries = product_summaries(*trace_, 1);
  std::size_t reviews = 0;
  for (const ProductSummary& s : summaries) reviews += s.reviews;
  EXPECT_EQ(reviews, trace_->reviews().size());
  // Sorted by descending review count.
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    EXPECT_GE(summaries[i - 1].reviews, summaries[i].reviews);
  }
}

TEST_F(AnalyticsTest, ProductSummaryValuesAreConsistent) {
  const auto summaries = product_summaries(*trace_, 1);
  for (const ProductSummary& s : summaries) {
    EXPECT_GE(s.mean_score, 1.0);
    EXPECT_LE(s.mean_score, 5.0);
    EXPECT_NEAR(s.score_inflation, s.mean_score - s.true_quality, 1e-12);
    EXPECT_GE(s.malicious_share, 0.0);
    EXPECT_LE(s.malicious_share, 1.0);
  }
}

TEST_F(AnalyticsTest, InflatedProductsAreMaliciousTargets) {
  // The most score-inflated products should be dominated by malicious
  // reviewers — the whole point of paid positive reviews.
  const auto inflated = most_inflated_products(*trace_, 5, 3);
  ASSERT_FALSE(inflated.empty());
  double share = 0.0;
  for (const ProductSummary& s : inflated) share += s.malicious_share;
  EXPECT_GT(share / static_cast<double>(inflated.size()), 0.5);
  // Sorted by descending inflation.
  for (std::size_t i = 1; i < inflated.size(); ++i) {
    EXPECT_GE(inflated[i - 1].score_inflation,
              inflated[i].score_inflation);
  }
}

TEST_F(AnalyticsTest, DistributionsMatchTraceTotals) {
  const TraceDistributions d = trace_distributions(*trace_);
  EXPECT_EQ(d.reviews_per_worker.count, trace_->workers().size());
  EXPECT_EQ(d.upvotes_per_review.count, trace_->reviews().size());
  EXPECT_EQ(d.reviews_per_product.count, trace_->products().size());
  EXPECT_GE(d.score_per_review.min, 1.0);
  EXPECT_LE(d.score_per_review.max, 5.0);
}

TEST_F(AnalyticsTest, RenderedDigestMentionsEveryRow) {
  const std::string text =
      render_distributions(trace_distributions(*trace_));
  EXPECT_NE(text.find("reviews/worker"), std::string::npos);
  EXPECT_NE(text.find("upvotes/review"), std::string::npos);
  EXPECT_NE(text.find("reviews/product"), std::string::npos);
  EXPECT_NE(text.find("median"), std::string::npos);
}

TEST(AnalyticsValidationTest, RequiresIndexes) {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  EXPECT_THROW(product_summaries(t), Error);
  EXPECT_THROW(trace_distributions(t), Error);
}

}  // namespace
}  // namespace ccd::data
