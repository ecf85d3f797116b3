#include "data/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace ccd::data {
namespace {

TEST(GeneratorParamsTest, PresetsValidate) {
  EXPECT_NO_THROW(GeneratorParams::small().validate());
  EXPECT_NO_THROW(GeneratorParams::medium().validate());
  EXPECT_NO_THROW(GeneratorParams::amazon2015().validate());
}

TEST(GeneratorParamsTest, Amazon2015MatchesPaperCensus) {
  const GeneratorParams p = GeneratorParams::amazon2015();
  EXPECT_EQ(p.community_sizes.size(), 47u);  // 47 communities
  std::size_t workers = 0;
  for (const std::size_t s : p.community_sizes) workers += s;
  EXPECT_EQ(workers, 212u);  // 212 CM workers
  EXPECT_EQ(p.n_honest + p.n_ncm + workers, 19686u);  // total reviewers
}

TEST(GeneratorParamsTest, ValidationCatchesBadBehaviour) {
  GeneratorParams p = GeneratorParams::small();
  p.honest.a2 = 0.5;  // convex
  EXPECT_THROW(p.validate(), Error);

  p = GeneratorParams::small();
  p.honest.effort_cap = 100.0;  // past the feedback-law peak
  EXPECT_THROW(p.validate(), Error);

  p = GeneratorParams::small();
  p.community_sizes = {1};  // community of one is not collusive
  EXPECT_THROW(p.validate(), Error);

  p = GeneratorParams::small();
  p.n_products = 10;  // not enough products for malicious pools
  EXPECT_THROW(p.validate(), Error);
}

TEST(GeneratorParamsTest, FromPopulationRejectsOversizedCommunities) {
  // The plant must never be silently truncated: a community census that
  // overruns the malicious budget is a ConfigError naming both numbers.
  try {
    GeneratorParams::from_population(20, 4, {3, 3}, 1);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3,3"), std::string::npos) << what;
    EXPECT_NE(what.find("6"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
}

TEST(GeneratorParamsTest, FromPopulationRejectsMaliciousOverrun) {
  try {
    GeneratorParams::from_population(5, 5, {}, 1);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos);
  }
}

TEST(GeneratorParamsTest, FromPopulationSpendsTheExactBudget) {
  const GeneratorParams p = GeneratorParams::from_population(40, 10, {2, 3}, 7);
  EXPECT_EQ(p.n_honest, 30u);
  EXPECT_EQ(p.n_ncm, 5u);  // 10 malicious - 5 community members
  const TraceStats s = generate_trace(p).stats();
  EXPECT_EQ(s.honest_workers, 30u);
  EXPECT_EQ(s.ncm_workers, 5u);
  EXPECT_EQ(s.cm_workers, 5u);
}

TEST(GenerateTraceTest, SybilSwarmIsPlantedAsAppendedCommunity) {
  GeneratorParams p = GeneratorParams::from_population(30, 8, {2, 3}, 11);
  p.n_sybil = 4;
  const ReviewTrace t = generate_trace(p);

  // The swarm lands after the configured communities, as one more
  // ground-truth community of collusive workers sharing a target pool.
  const auto swarm_community =
      static_cast<std::int32_t>(p.community_sizes.size());
  std::vector<WorkerId> swarm;
  for (const Worker& w : t.workers()) {
    if (w.true_community == swarm_community) {
      EXPECT_EQ(w.true_class, WorkerClass::kCollusiveMalicious);
      swarm.push_back(w.id);
    }
  }
  ASSERT_EQ(swarm.size(), 4u);

  // Shared anchor: every swarm member's first review hits one product.
  std::set<ProductId> anchors;
  for (const WorkerId id : swarm) {
    anchors.insert(t.review(t.reviews_of_worker(id).front()).product);
  }
  EXPECT_EQ(anchors.size(), 1u);
}

TEST(GenerateTraceTest, ChurnTruncatesReviewHistories) {
  GeneratorParams p = GeneratorParams::from_population(40, 10, {2, 3}, 13);
  p.campaign_rounds = 12;
  p.churn_arrival_mean = 4.0;
  p.churn_lifetime_mean = 3.0;
  const ReviewTrace t = generate_trace(p);
  EXPECT_NO_THROW(t.validate());

  std::size_t max_reviews = 0;
  for (const Worker& w : t.workers()) {
    const std::size_t n = t.reviews_of_worker(w.id).size();
    EXPECT_GE(n, p.min_reviews);
    // No activity window can outlast the campaign.
    EXPECT_LE(n, std::max(p.min_reviews, p.campaign_rounds));
    max_reviews = std::max(max_reviews, n);
  }
  // The windows actually bind: without churn this population's longest
  // history is far beyond the campaign horizon.
  GeneratorParams unchurned = p;
  unchurned.campaign_rounds = 0;
  std::size_t unchurned_max = 0;
  const ReviewTrace u = generate_trace(unchurned);
  for (const Worker& w : u.workers()) {
    unchurned_max = std::max(unchurned_max, u.reviews_of_worker(w.id).size());
  }
  EXPECT_LT(max_reviews, unchurned_max);
}

TEST(GenerateTraceTest, DeterministicForSeed) {
  const ReviewTrace a = generate_trace(GeneratorParams::small());
  const ReviewTrace b = generate_trace(GeneratorParams::small());
  ASSERT_EQ(a.reviews().size(), b.reviews().size());
  for (std::size_t i = 0; i < a.reviews().size(); ++i) {
    EXPECT_EQ(a.review(i).upvotes, b.review(i).upvotes);
    EXPECT_EQ(a.review(i).product, b.review(i).product);
  }
}

TEST(GenerateTraceTest, DifferentSeedsDiffer) {
  GeneratorParams p = GeneratorParams::small();
  const ReviewTrace a = generate_trace(p);
  p.seed = p.seed + 1;
  const ReviewTrace b = generate_trace(p);
  bool any_diff = a.reviews().size() != b.reviews().size();
  for (std::size_t i = 0; !any_diff && i < a.reviews().size(); ++i) {
    any_diff = a.review(i).upvotes != b.review(i).upvotes;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GenerateTraceTest, PopulationCountsMatchParams) {
  const GeneratorParams p = GeneratorParams::small();
  const ReviewTrace t = generate_trace(p);
  const TraceStats s = t.stats();
  EXPECT_EQ(s.honest_workers, p.n_honest);
  EXPECT_EQ(s.ncm_workers, p.n_ncm);
  std::size_t cm = 0;
  for (const std::size_t size : p.community_sizes) cm += size;
  EXPECT_EQ(s.cm_workers, cm);
  EXPECT_EQ(s.true_communities, p.community_sizes.size());
  EXPECT_EQ(s.products, p.n_products);
}

TEST(GenerateTraceTest, TraceValidates) {
  EXPECT_NO_THROW(generate_trace(GeneratorParams::small()).validate());
}

TEST(GenerateTraceTest, EveryWorkerHasMinReviews) {
  GeneratorParams p = GeneratorParams::small();
  p.min_reviews = 3;
  const ReviewTrace t = generate_trace(p);
  for (const Worker& w : t.workers()) {
    EXPECT_GE(t.reviews_of_worker(w.id).size(), 3u);
  }
}

TEST(GenerateTraceTest, CommunityMembersShareAnchorProduct) {
  const ReviewTrace t = generate_trace(GeneratorParams::small());
  // Group CM workers by true community and check pairwise shared targets
  // through the anchor (first) product.
  std::map<std::int32_t, std::set<ProductId>> first_products;
  for (const Worker& w : t.workers()) {
    if (w.true_class != WorkerClass::kCollusiveMalicious) continue;
    const ReviewId first = t.reviews_of_worker(w.id).front();
    first_products[w.true_community].insert(t.review(first).product);
  }
  for (const auto& [community, products] : first_products) {
    EXPECT_EQ(products.size(), 1u)
        << "community " << community << " lacks a common anchor";
  }
}

TEST(GenerateTraceTest, MaliciousWorkersDoNotCrossCommunities) {
  const ReviewTrace t = generate_trace(GeneratorParams::small());
  // Map product -> set of true communities of malicious reviewers.
  std::map<ProductId, std::set<std::int32_t>> touch;
  for (const Review& r : t.reviews()) {
    const Worker& w = t.worker(r.worker);
    if (w.true_class == WorkerClass::kHonest) continue;
    // NCM workers use pseudo-community -2 - id to be distinct.
    const std::int32_t tag =
        w.true_class == WorkerClass::kCollusiveMalicious
            ? w.true_community
            : -2 - static_cast<std::int32_t>(w.id);
    touch[r.product].insert(tag);
  }
  for (const auto& [product, tags] : touch) {
    EXPECT_EQ(tags.size(), 1u)
        << "product " << product << " is shared across malicious groups";
  }
}

TEST(GenerateTraceTest, MaliciousScoresAreBiasedHigh) {
  const ReviewTrace t = generate_trace(GeneratorParams::small());
  double honest_dev = 0.0;
  std::size_t honest_n = 0;
  double malicious_score = 0.0;
  std::size_t malicious_n = 0;
  for (const Review& r : t.reviews()) {
    if (t.worker(r.worker).true_class == WorkerClass::kHonest) {
      honest_dev += std::abs(r.score - t.product(r.product).true_quality);
      ++honest_n;
    } else {
      malicious_score += r.score;
      ++malicious_n;
    }
  }
  EXPECT_LT(honest_dev / static_cast<double>(honest_n), 0.6);
  EXPECT_GT(malicious_score / static_cast<double>(malicious_n), 4.5);
}

TEST(GenerateTraceTest, CollusiveFeedbackIsInflated) {
  const ReviewTrace t = generate_trace(GeneratorParams::medium());
  double honest = 0.0, cm = 0.0;
  std::size_t hn = 0, cn = 0;
  for (const Review& r : t.reviews()) {
    switch (t.worker(r.worker).true_class) {
      case WorkerClass::kHonest:
        honest += r.upvotes;
        ++hn;
        break;
      case WorkerClass::kCollusiveMalicious:
        cm += r.upvotes;
        ++cn;
        break;
      default:
        break;
    }
  }
  // Fig. 7's shape: CM feedback well above honest feedback.
  EXPECT_GT(cm / static_cast<double>(cn), 1.3 * honest / static_cast<double>(hn));
}

}  // namespace
}  // namespace ccd::data
