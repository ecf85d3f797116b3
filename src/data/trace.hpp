// ReviewTrace: the in-memory dataset (workers, products, reviews) plus
// indexes and summary statistics.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "data/schema.hpp"

namespace ccd::data {

struct TraceStats {
  std::size_t workers = 0;
  std::size_t products = 0;
  std::size_t reviews = 0;
  std::size_t honest_workers = 0;
  std::size_t ncm_workers = 0;
  std::size_t cm_workers = 0;
  std::size_t true_communities = 0;
  double mean_reviews_per_worker = 0.0;
  double mean_upvotes = 0.0;
  double mean_length = 0.0;

  std::string to_string() const;
};

class ReviewTrace {
 public:
  ReviewTrace() = default;

  /// Appends; ids must equal the current container size (dense ids).
  void add_worker(Worker worker);
  void add_product(Product product);
  void add_review(Review review);

  const std::vector<Worker>& workers() const { return workers_; }
  const std::vector<Product>& products() const { return products_; }
  const std::vector<Review>& reviews() const { return reviews_; }

  const Worker& worker(WorkerId id) const;
  const Product& product(ProductId id) const;
  const Review& review(ReviewId id) const;

  /// Review ids authored by `id`, ascending (chronological): a view into
  /// the index, valid until the next add_* or build_indexes(). Requires
  /// build_indexes().
  std::span<const ReviewId> reviews_of_worker(WorkerId id) const;

  /// Review ids on `id`, ascending; a view like reviews_of_worker's.
  /// Requires build_indexes().
  std::span<const ReviewId> reviews_of_product(ProductId id) const;

  /// Distinct product ids reviewed by `id`, ascending. Requires
  /// build_indexes().
  std::vector<ProductId> products_of_worker(WorkerId id) const;

  /// (Re)build the per-worker / per-product indexes; call after loading.
  void build_indexes();
  bool indexes_built() const { return indexes_built_; }

  /// Consistency check: dense ids, references in range, rounds sequential
  /// per worker. Throws ccd::DataError describing the first violation.
  void validate() const;

  TraceStats stats() const;

 private:
  std::vector<Worker> workers_;
  std::vector<Product> products_;
  std::vector<Review> reviews_;
  /// The two indexes in compressed-row form: worker w's review ids are
  /// worker_reviews_[worker_offsets_[w] .. worker_offsets_[w + 1]), in
  /// ascending order; likewise per product.
  std::vector<std::size_t> worker_offsets_;
  std::vector<ReviewId> worker_reviews_;
  std::vector<std::size_t> product_offsets_;
  std::vector<ReviewId> product_reviews_;
  bool indexes_built_ = false;
};

}  // namespace ccd::data
