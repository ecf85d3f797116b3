#include "detect/expert.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace ccd::detect {

ExpertPanel::ExpertPanel(const data::ReviewTrace& trace,
                         const data::WorkerMetrics& metrics,
                         ExpertConfig config) {
  CCD_CHECK_MSG(trace.indexes_built(), "ExpertPanel requires trace indexes");

  // Feedback threshold from the distribution of per-worker mean feedback
  // (the metrics' expertise: the same per-worker mean of upvotes) among
  // sufficiently active workers.
  std::vector<double> mean_feedbacks;
  mean_feedbacks.reserve(trace.workers().size());
  for (const data::Worker& w : trace.workers()) {
    if (trace.reviews_of_worker(w.id).size() >= config.min_reviews) {
      mean_feedbacks.push_back(metrics.expertise(w.id));
    }
  }
  const double feedback_threshold =
      mean_feedbacks.empty()
          ? 0.0
          : util::percentile(std::move(mean_feedbacks),
                             config.feedback_percentile);

  // Review ids come from the trace's own index, which build_indexes()
  // validated (ids and the products they reference), so the loops index
  // reviews() and products() directly.
  const std::vector<data::Review>& reviews = trace.reviews();
  const std::vector<data::Product>& products = trace.products();
  std::vector<bool> expert(trace.workers().size(), false);
  for (const data::Worker& w : trace.workers()) {
    if (config.trust_badges && w.expert_badge) {
      expert[w.id] = true;
      experts_.push_back(w.id);
      continue;
    }
    const auto& review_ids = trace.reviews_of_worker(w.id);
    if (review_ids.size() < config.min_reviews) continue;
    if (metrics.expertise(w.id) < feedback_threshold) continue;
    double deviation = 0.0;
    for (const data::ReviewId rid : review_ids) {
      const data::Review& r = reviews[rid];
      deviation += std::abs(r.score - products[r.product].true_quality);
    }
    deviation /= static_cast<double>(review_ids.size());
    if (deviation > config.max_score_deviation) continue;
    expert[w.id] = true;
    experts_.push_back(w.id);
  }

  // Per-product expert consensus: sum the expert scores, then store each
  // product's mean once (the global mean where no expert reviewed it).
  consensus_.assign(products.size(), 0.0);
  product_score_count_.assign(products.size(), 0);
  util::Accumulator global;
  for (const data::Review& r : reviews) {
    if (!expert[r.worker]) continue;
    consensus_[r.product] += r.score;
    ++product_score_count_[r.product];
    global.add(r.score);
  }
  if (global.count() > 0) global_mean_ = global.mean();
  for (std::size_t p = 0; p < consensus_.size(); ++p) {
    consensus_[p] = product_score_count_[p] == 0
                        ? global_mean_
                        : consensus_[p] /
                              static_cast<double>(product_score_count_[p]);
  }
}

double ExpertPanel::coverage() const {
  if (product_score_count_.empty()) return 0.0;
  std::size_t covered = 0;
  for (const std::size_t c : product_score_count_) {
    if (c > 0) ++covered;
  }
  return static_cast<double>(covered) /
         static_cast<double>(product_score_count_.size());
}

}  // namespace ccd::detect
