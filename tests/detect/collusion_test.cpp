#include "detect/collusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "data/generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ccd::detect {
namespace {

TEST(CollusionTest, RecoversPlantedCommunitiesExactly) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const CollusionResult result = cluster_ground_truth_malicious(trace);

  // Expected: exactly the generator's planted communities.
  std::map<std::int32_t, std::set<data::WorkerId>> planted;
  for (const data::Worker& w : trace.workers()) {
    if (w.true_class == data::WorkerClass::kCollusiveMalicious) {
      planted[w.true_community].insert(w.id);
    }
  }
  ASSERT_EQ(result.communities.size(), planted.size());

  std::set<std::set<data::WorkerId>> found;
  for (const Community& c : result.communities) {
    found.insert({c.members.begin(), c.members.end()});
  }
  for (const auto& [id, members] : planted) {
    EXPECT_TRUE(found.count(members)) << "planted community " << id
                                      << " not recovered";
  }
}

TEST(CollusionTest, NcmWorkersAreSingletons) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const CollusionResult result = cluster_ground_truth_malicious(trace);
  std::set<data::WorkerId> ncm_truth;
  for (const data::Worker& w : trace.workers()) {
    if (w.true_class == data::WorkerClass::kNonCollusiveMalicious) {
      ncm_truth.insert(w.id);
    }
  }
  const std::set<data::WorkerId> ncm_found(result.non_collusive.begin(),
                                           result.non_collusive.end());
  EXPECT_EQ(ncm_found, ncm_truth);
}

TEST(CollusionTest, BackendsAgree) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const CollusionResult uf =
      cluster_ground_truth_malicious(trace, ClusterBackend::kUnionFind);
  const CollusionResult dfs =
      cluster_ground_truth_malicious(trace, ClusterBackend::kDfsGraph);
  ASSERT_EQ(uf.communities.size(), dfs.communities.size());
  for (std::size_t i = 0; i < uf.communities.size(); ++i) {
    std::set<data::WorkerId> a(uf.communities[i].members.begin(),
                               uf.communities[i].members.end());
    std::set<data::WorkerId> b(dfs.communities[i].members.begin(),
                               dfs.communities[i].members.end());
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(uf.non_collusive, dfs.non_collusive);
}

void expect_equal_results(const CollusionResult& a, const CollusionResult& b) {
  ASSERT_EQ(a.communities.size(), b.communities.size());
  for (std::size_t c = 0; c < a.communities.size(); ++c) {
    EXPECT_EQ(a.communities[c].members, b.communities[c].members)
        << "community " << c;
    EXPECT_EQ(a.communities[c].targets, b.communities[c].targets)
        << "community " << c;
  }
  EXPECT_EQ(a.non_collusive, b.non_collusive);
  EXPECT_EQ(a.community_of, b.community_of);
}

// The flat union-find backend against the paper's DFS over explicit
// same-product edges: equal results, field for field, on random worker
// sets of the medium trace (most malicious workers and a few honest ones,
// which pull in shared popular products), in ascending and in shuffled
// order, plus the empty set and a single worker.
TEST(CollusionTest, UnionFindEqualsDfsOnRandomWorkerSets) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::medium());
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    std::vector<data::WorkerId> workers;
    for (const data::Worker& w : trace.workers()) {
      const bool malicious = w.true_class != data::WorkerClass::kHonest;
      if (rng.bernoulli(malicious ? 0.8 : 0.03)) workers.push_back(w.id);
    }
    if (seed % 2 == 0) rng.shuffle(workers);
    const CollusionResult uf =
        cluster_collusive_workers(trace, workers, ClusterBackend::kUnionFind);
    const CollusionResult dfs =
        cluster_collusive_workers(trace, workers, ClusterBackend::kDfsGraph);
    EXPECT_FALSE(uf.communities.empty());
    expect_equal_results(uf, dfs);
    // The grouping both backends share: members keep the input order, and
    // targets are the members' distinct products, ascending.
    std::map<data::WorkerId, std::size_t> position;
    for (std::size_t i = 0; i < workers.size(); ++i) position[workers[i]] = i;
    for (const Community& c : uf.communities) {
      std::set<data::ProductId> products;
      for (std::size_t m = 0; m < c.members.size(); ++m) {
        const data::WorkerId wid = c.members[m];
        if (m > 0) {
          EXPECT_LT(position[c.members[m - 1]], position[wid]);
        }
        for (const data::ReviewId rid : trace.reviews_of_worker(wid)) {
          products.insert(trace.review(rid).product);
        }
      }
      EXPECT_EQ(c.targets,
                std::vector<data::ProductId>(products.begin(), products.end()));
    }
  }
  const std::vector<data::WorkerId> none;
  const CollusionResult uf_none =
      cluster_collusive_workers(trace, none, ClusterBackend::kUnionFind);
  expect_equal_results(
      uf_none,
      cluster_collusive_workers(trace, none, ClusterBackend::kDfsGraph));
  EXPECT_EQ(uf_none.community_of.size(), trace.workers().size());
  const std::vector<data::WorkerId> one = {trace.workers().back().id};
  const CollusionResult uf_one =
      cluster_collusive_workers(trace, one, ClusterBackend::kUnionFind);
  expect_equal_results(
      uf_one, cluster_collusive_workers(trace, one, ClusterBackend::kDfsGraph));
  EXPECT_EQ(uf_one.non_collusive, one);
}

TEST(CollusionTest, CommunityOfMapsMembersOnly) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const CollusionResult result = cluster_ground_truth_malicious(trace);
  for (const data::Worker& w : trace.workers()) {
    const std::int32_t c = result.community_of[w.id];
    if (w.true_class == data::WorkerClass::kCollusiveMalicious) {
      ASSERT_GE(c, 0);
      const auto& members =
          result.communities[static_cast<std::size_t>(c)].members;
      EXPECT_NE(std::find(members.begin(), members.end(), w.id),
                members.end());
    } else {
      EXPECT_EQ(c, -1);
    }
  }
}

TEST(CollusionTest, CommunitiesSortedByDescendingSize) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::medium());
  const CollusionResult result = cluster_ground_truth_malicious(trace);
  for (std::size_t i = 1; i < result.communities.size(); ++i) {
    EXPECT_GE(result.communities[i - 1].members.size(),
              result.communities[i].members.size());
  }
}

TEST(CollusionTest, TargetsListCommunityProducts) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const CollusionResult result = cluster_ground_truth_malicious(trace);
  for (const Community& c : result.communities) {
    EXPECT_FALSE(c.targets.empty());
    // Every member reviews only community targets.
    const std::set<data::ProductId> targets(c.targets.begin(),
                                            c.targets.end());
    for (const data::WorkerId wid : c.members) {
      for (const data::ProductId pid : trace.products_of_worker(wid)) {
        EXPECT_TRUE(targets.count(pid));
      }
    }
  }
}

TEST(CollusionTest, EmptyMaliciousSetYieldsNothing) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::small());
  const CollusionResult result = cluster_collusive_workers(trace, {});
  EXPECT_TRUE(result.communities.empty());
  EXPECT_TRUE(result.non_collusive.empty());
}

// Property: planted communities survive mid-campaign churn. Churn
// truncates review histories to each worker's activity window, but every
// community member keeps its anchor-product review (review 0), so the
// paper's same-target rule must still recover every planted community —
// across seeds, not just one lucky draw.
TEST(CollusionTest, RecoversPlantedCommunitiesUnderChurn) {
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{17},
                                   std::uint64_t{2026}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    data::GeneratorParams params =
        data::GeneratorParams::from_population(60, 15, {3, 4}, seed);
    params.campaign_rounds = 20;
    params.churn_arrival_mean = 5.0;
    params.churn_lifetime_mean = 8.0;
    const data::ReviewTrace trace = data::generate_trace(params);

    std::map<std::int32_t, std::set<data::WorkerId>> planted;
    for (const data::Worker& w : trace.workers()) {
      if (w.true_class == data::WorkerClass::kCollusiveMalicious) {
        planted[w.true_community].insert(w.id);
      }
    }
    ASSERT_EQ(planted.size(), 2u);

    const CollusionResult result = cluster_ground_truth_malicious(trace);
    std::set<std::set<data::WorkerId>> found;
    for (const Community& c : result.communities) {
      found.insert({c.members.begin(), c.members.end()});
    }
    for (const auto& [id, members] : planted) {
      EXPECT_TRUE(found.count(members))
          << "community " << id << " lost under churn";
    }
  }
}

TEST(CensusTest, MatchesKnownDistribution) {
  CollusionResult r;
  r.communities.resize(4);
  r.communities[0].members = {0, 1};
  r.communities[1].members = {2, 3};
  r.communities[2].members = {4, 5, 6};
  r.communities[3].members = {7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const CommunityCensus c = census(r);
  EXPECT_EQ(c.communities, 4u);
  EXPECT_EQ(c.workers, 17u);
  EXPECT_DOUBLE_EQ(c.pct_size2, 50.0);
  EXPECT_DOUBLE_EQ(c.pct_size3, 25.0);
  EXPECT_DOUBLE_EQ(c.pct_size10plus, 25.0);
  EXPECT_DOUBLE_EQ(c.pct_size4, 0.0);
}

TEST(CensusTest, EmptyResult) {
  const CommunityCensus c = census(CollusionResult{});
  EXPECT_EQ(c.communities, 0u);
  EXPECT_EQ(c.workers, 0u);
}

TEST(CensusTest, ToStringContainsCounts) {
  CollusionResult r;
  r.communities.resize(1);
  r.communities[0].members = {0, 1};
  const std::string s = census(r).to_string();
  EXPECT_NE(s.find("1 communities"), std::string::npos);
  EXPECT_NE(s.find("2 workers"), std::string::npos);
}

TEST(CollusionTest, Amazon2015CensusMatchesTableII) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::amazon2015());
  const CollusionResult result = cluster_ground_truth_malicious(trace);
  const CommunityCensus c = census(result);
  EXPECT_EQ(c.communities, 47u);
  EXPECT_EQ(c.workers, 212u);
  // Paper Table II: 51.2 / 22.0 / 7.3 / 2.4 / 9.8 / >=10: 4.9.
  EXPECT_NEAR(c.pct_size2, 51.2, 1.5);
  EXPECT_NEAR(c.pct_size3, 22.0, 1.5);
  EXPECT_NEAR(c.pct_size4, 7.3, 1.5);
  EXPECT_NEAR(c.pct_size5, 2.4, 1.5);
  EXPECT_NEAR(c.pct_size6, 9.8, 1.5);
  EXPECT_NEAR(c.pct_size10plus, 4.9, 1.5);
}

}  // namespace
}  // namespace ccd::detect
