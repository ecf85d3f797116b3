#include "data/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace ccd::data {
namespace {

ReviewTrace tiny_trace() {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  t.add_worker({1, WorkerClass::kNonCollusiveMalicious, kNoCommunity, 1.0, false});
  t.add_worker({2, WorkerClass::kCollusiveMalicious, 0, 1.0, false});
  t.add_worker({3, WorkerClass::kCollusiveMalicious, 0, 1.0, false});
  t.add_product({0, 4.0});
  t.add_product({1, 2.5});
  t.add_review({0, 0, 0, 0, 4.2, 100, 5, true});
  t.add_review({1, 0, 1, 1, 2.4, 120, 3, true});
  t.add_review({2, 1, 0, 0, 5.0, 80, 2, false});
  t.add_review({3, 2, 1, 0, 5.0, 90, 9, false});
  t.add_review({4, 3, 1, 0, 4.9, 95, 8, false});
  t.build_indexes();
  return t;
}

TEST(WorkerClassTest, RoundTripsStrings) {
  EXPECT_EQ(worker_class_from_string(to_string(WorkerClass::kHonest)),
            WorkerClass::kHonest);
  EXPECT_EQ(worker_class_from_string("NCM"),
            WorkerClass::kNonCollusiveMalicious);
  EXPECT_EQ(worker_class_from_string(" cm "),
            WorkerClass::kCollusiveMalicious);
  EXPECT_THROW(worker_class_from_string("alien"), DataError);
}

TEST(ReviewTraceTest, DenseIdEnforcement) {
  ReviewTrace t;
  Worker w;
  w.id = 1;  // should be 0
  EXPECT_THROW(t.add_worker(w), Error);
  Product p;
  p.id = 3;
  EXPECT_THROW(t.add_product(p), Error);
}

TEST(ReviewTraceTest, AccessorsAndRangeChecks) {
  const ReviewTrace t = tiny_trace();
  EXPECT_EQ(t.worker(2).true_community, 0);
  EXPECT_DOUBLE_EQ(t.product(1).true_quality, 2.5);
  EXPECT_EQ(t.review(3).worker, 2u);
  EXPECT_THROW(t.worker(9), Error);
  EXPECT_THROW(t.product(9), Error);
  EXPECT_THROW(t.review(9), Error);
}

TEST(ReviewTraceTest, IndexesGroupReviews) {
  const ReviewTrace t = tiny_trace();
  EXPECT_EQ(t.reviews_of_worker(0).size(), 2u);
  EXPECT_EQ(t.reviews_of_worker(1).size(), 1u);
  EXPECT_EQ(t.reviews_of_product(1).size(), 3u);
  EXPECT_EQ(t.reviews_of_product(0).size(), 2u);
}

TEST(ReviewTraceTest, ProductsOfWorkerDeduplicates) {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  t.add_product({0, 3.0});
  t.add_review({0, 0, 0, 0, 3.0, 50, 1, true});
  t.add_review({1, 0, 0, 1, 3.5, 50, 1, true});
  t.build_indexes();
  EXPECT_EQ(t.products_of_worker(0).size(), 1u);
}

/// The indexes as the per-row vectors they once were: one list per worker
/// and one per product, each review id appended in review order.
struct ReferenceIndex {
  std::vector<std::vector<ReviewId>> by_worker;
  std::vector<std::vector<ReviewId>> by_product;
};

ReferenceIndex reference_index(const ReviewTrace& t) {
  ReferenceIndex ref;
  ref.by_worker.assign(t.workers().size(), {});
  ref.by_product.assign(t.products().size(), {});
  for (const Review& r : t.reviews()) {
    ref.by_worker[r.worker].push_back(r.id);
    ref.by_product[r.product].push_back(r.id);
  }
  return ref;
}

void expect_index_matches_reference(const ReviewTrace& t) {
  const ReferenceIndex ref = reference_index(t);
  for (const Worker& w : t.workers()) {
    const std::span<const ReviewId> ids = t.reviews_of_worker(w.id);
    EXPECT_EQ(std::vector<ReviewId>(ids.begin(), ids.end()),
              ref.by_worker[w.id])
        << "worker " << w.id;
    std::set<ProductId> products;
    for (const ReviewId rid : ref.by_worker[w.id]) {
      products.insert(t.review(rid).product);
    }
    EXPECT_EQ(t.products_of_worker(w.id),
              std::vector<ProductId>(products.begin(), products.end()))
        << "worker " << w.id;
  }
  for (const Product& p : t.products()) {
    const std::span<const ReviewId> ids = t.reviews_of_product(p.id);
    EXPECT_EQ(std::vector<ReviewId>(ids.begin(), ids.end()),
              ref.by_product[p.id])
        << "product " << p.id;
  }
}

// Reviews in id order interleave workers and products, as a loaded CSV
// may list them; worker 2 and product 3 have no reviews, and worker 1
// reviews product 2 twice.
TEST(ReviewTraceTest, CompressedIndexMatchesPerRowReference) {
  ReviewTrace t;
  for (WorkerId w = 0; w < 4; ++w) {
    t.add_worker({w, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  }
  for (ProductId p = 0; p < 4; ++p) t.add_product({p, 3.0});
  const WorkerId workers[] = {1, 0, 3, 1, 0, 1, 3, 0};
  const ProductId products[] = {2, 0, 1, 2, 2, 0, 1, 1};
  for (ReviewId i = 0; i < 8; ++i) {
    t.add_review({i, workers[i], products[i], 0, 3.0, 50, 1, true});
  }
  t.build_indexes();
  expect_index_matches_reference(t);
  EXPECT_TRUE(t.reviews_of_worker(2).empty());
  EXPECT_TRUE(t.reviews_of_product(3).empty());
  EXPECT_TRUE(t.products_of_worker(2).empty());
  EXPECT_EQ(t.products_of_worker(1), (std::vector<ProductId>{0, 2}));
  EXPECT_THROW(t.reviews_of_worker(4), Error);
  EXPECT_THROW(t.reviews_of_product(4), Error);

  // Another review drops the index until it is rebuilt, and the rebuilt
  // index lists it: worker 2 and product 3 now have one review each.
  t.add_review({8, 2, 3, 0, 3.0, 50, 1, true});
  EXPECT_FALSE(t.indexes_built());
  EXPECT_THROW(t.reviews_of_worker(2), Error);
  t.build_indexes();
  expect_index_matches_reference(t);
  EXPECT_EQ(t.reviews_of_worker(2).size(), 1u);
  EXPECT_EQ(t.reviews_of_product(3).size(), 1u);
}

TEST(ReviewTraceTest, IndexRequiredBeforeQueries) {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  EXPECT_THROW(t.reviews_of_worker(0), Error);
}

TEST(ReviewTraceTest, ValidatePassesOnGoodTrace) {
  EXPECT_NO_THROW(tiny_trace().validate());
}

TEST(ReviewTraceTest, ValidateCatchesCmWithoutCommunity) {
  ReviewTrace t;
  Worker w;
  w.id = 0;
  w.true_class = WorkerClass::kCollusiveMalicious;
  w.true_community = kNoCommunity;
  t.add_worker(w);
  EXPECT_THROW(t.validate(), DataError);
}

TEST(ReviewTraceTest, ValidateCatchesHonestWithCommunity) {
  ReviewTrace t;
  Worker w;
  w.id = 0;
  w.true_class = WorkerClass::kHonest;
  w.true_community = 2;
  t.add_worker(w);
  EXPECT_THROW(t.validate(), DataError);
}

TEST(ReviewTraceTest, ValidateCatchesBadScore) {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  t.add_product({0, 3.0});
  Review r;
  r.id = 0;
  r.worker = 0;
  r.product = 0;
  r.round = 0;
  r.score = 6.0;  // out of [1,5]
  t.add_review(r);
  EXPECT_THROW(t.validate(), DataError);
}

TEST(ReviewTraceTest, ValidateCatchesNonSequentialRounds) {
  ReviewTrace t;
  t.add_worker({0, WorkerClass::kHonest, kNoCommunity, 1.0, false});
  t.add_product({0, 3.0});
  Review r;
  r.id = 0;
  r.worker = 0;
  r.product = 0;
  r.round = 1;  // first review must be round 0
  r.score = 3.0;
  t.add_review(r);
  EXPECT_THROW(t.validate(), DataError);
}

TEST(ReviewTraceTest, StatsCountsClasses) {
  const TraceStats s = tiny_trace().stats();
  EXPECT_EQ(s.workers, 4u);
  EXPECT_EQ(s.honest_workers, 1u);
  EXPECT_EQ(s.ncm_workers, 1u);
  EXPECT_EQ(s.cm_workers, 2u);
  EXPECT_EQ(s.true_communities, 1u);
  EXPECT_EQ(s.reviews, 5u);
  EXPECT_DOUBLE_EQ(s.mean_reviews_per_worker, 1.25);
  EXPECT_DOUBLE_EQ(s.mean_upvotes, (5 + 3 + 2 + 9 + 8) / 5.0);
  const std::string text = s.to_string();
  EXPECT_NE(text.find("workers=4"), std::string::npos);
}

}  // namespace
}  // namespace ccd::data
