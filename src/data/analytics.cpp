#include "data/analytics.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace ccd::data {

std::vector<ProductSummary> product_summaries(const ReviewTrace& trace,
                                              std::size_t min_reviews) {
  CCD_CHECK_MSG(trace.indexes_built(), "analytics requires trace indexes");
  std::vector<ProductSummary> out;
  for (const Product& product : trace.products()) {
    const auto& review_ids = trace.reviews_of_product(product.id);
    if (review_ids.size() < min_reviews) continue;
    ProductSummary s;
    s.id = product.id;
    s.reviews = review_ids.size();
    s.true_quality = product.true_quality;
    double malicious = 0.0;
    for (const ReviewId rid : review_ids) {
      const Review& r = trace.review(rid);
      s.mean_score += r.score;
      s.mean_upvotes += r.upvotes;
      if (trace.worker(r.worker).true_class != WorkerClass::kHonest) {
        malicious += 1.0;
      }
    }
    const double n = static_cast<double>(review_ids.size());
    s.mean_score /= n;
    s.mean_upvotes /= n;
    s.score_inflation = s.mean_score - s.true_quality;
    s.malicious_share = malicious / n;
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const ProductSummary& a, const ProductSummary& b) {
              if (a.reviews != b.reviews) return a.reviews > b.reviews;
              return a.id < b.id;
            });
  return out;
}

std::vector<ProductSummary> most_inflated_products(const ReviewTrace& trace,
                                                   std::size_t top,
                                                   std::size_t min_reviews) {
  std::vector<ProductSummary> all = product_summaries(trace, min_reviews);
  std::sort(all.begin(), all.end(),
            [](const ProductSummary& a, const ProductSummary& b) {
              if (a.score_inflation != b.score_inflation) {
                return a.score_inflation > b.score_inflation;
              }
              return a.id < b.id;
            });
  if (all.size() > top) all.resize(top);
  return all;
}

TraceDistributions trace_distributions(const ReviewTrace& trace) {
  CCD_CHECK_MSG(trace.indexes_built(), "analytics requires trace indexes");
  std::vector<double> per_worker;
  per_worker.reserve(trace.workers().size());
  for (const Worker& w : trace.workers()) {
    per_worker.push_back(
        static_cast<double>(trace.reviews_of_worker(w.id).size()));
  }
  std::vector<double> upvotes;
  std::vector<double> scores;
  std::vector<double> lengths;
  upvotes.reserve(trace.reviews().size());
  for (const Review& r : trace.reviews()) {
    upvotes.push_back(r.upvotes);
    scores.push_back(r.score);
    lengths.push_back(r.length_chars);
  }
  std::vector<double> per_product;
  per_product.reserve(trace.products().size());
  for (const Product& p : trace.products()) {
    per_product.push_back(
        static_cast<double>(trace.reviews_of_product(p.id).size()));
  }

  TraceDistributions d;
  d.reviews_per_worker = util::summarize(per_worker);
  d.upvotes_per_review = util::summarize(upvotes);
  d.score_per_review = util::summarize(scores);
  d.length_per_review = util::summarize(lengths);
  d.reviews_per_product = util::summarize(per_product);
  return d;
}

std::string render_distributions(const TraceDistributions& d) {
  const auto line = [](const char* name, const util::Summary& s) {
    std::ostringstream os;
    os << name << ": mean " << util::format_double(s.mean, 2) << ", p5 "
       << util::format_double(s.p5, 2) << ", median "
       << util::format_double(s.median, 2) << ", p95 "
       << util::format_double(s.p95, 2) << ", max "
       << util::format_double(s.max, 2) << '\n';
    return os.str();
  };
  std::string out;
  out += line("reviews/worker ", d.reviews_per_worker);
  out += line("upvotes/review ", d.upvotes_per_review);
  out += line("score/review   ", d.score_per_review);
  out += line("length/review  ", d.length_per_review);
  out += line("reviews/product", d.reviews_per_product);
  return out;
}

}  // namespace ccd::data
