// Trace analytics: descriptive views of a review trace used by ccdctl's
// inspect command, the examples, and exploratory analysis — per-product
// summaries and suspiciousness signals that don't need the full detector.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "data/trace.hpp"
#include "util/stats.hpp"

namespace ccd::data {

struct ProductSummary {
  ProductId id = 0;
  std::size_t reviews = 0;
  double mean_score = 0.0;
  double mean_upvotes = 0.0;
  double true_quality = 0.0;
  /// Mean score minus true quality: large positive values flag promotion.
  double score_inflation = 0.0;
  /// Share of reviews from ground-truth malicious workers (when labels are
  /// available; 0 otherwise).
  double malicious_share = 0.0;
};

/// Per-product summaries for products with at least `min_reviews` reviews,
/// sorted by descending review count.
std::vector<ProductSummary> product_summaries(const ReviewTrace& trace,
                                              std::size_t min_reviews = 1);

/// The `top` products by score inflation (most promoted first); candidates
/// for manual audit.
std::vector<ProductSummary> most_inflated_products(const ReviewTrace& trace,
                                                   std::size_t top = 10,
                                                   std::size_t min_reviews = 3);

/// Overall distributional stats for quick sanity checks.
struct TraceDistributions {
  util::Summary reviews_per_worker;
  util::Summary upvotes_per_review;
  util::Summary score_per_review;
  util::Summary length_per_review;
  util::Summary reviews_per_product;
};

TraceDistributions trace_distributions(const ReviewTrace& trace);

/// Multi-line human-readable digest of the distributions.
std::string render_distributions(const TraceDistributions& d);

}  // namespace ccd::data
