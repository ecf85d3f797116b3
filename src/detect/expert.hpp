// Expert identification and per-product expert-consensus ("ground truth")
// scores.
//
// The paper defines experts as "workers whose accuracy and positive
// endorsements (along with reputation) are both higher than the thresholds
// specified by the system", and uses the average expert review score l̄ as
// the ground truth each worker's review accuracy is measured against
// (Eq. 5).
#pragma once

#include <vector>

#include "data/metrics.hpp"
#include "data/trace.hpp"
#include "util/error.hpp"

namespace ccd::detect {

struct ExpertConfig {
  /// Minimum number of reviews before a worker can qualify.
  std::size_t min_reviews = 5;
  /// Feedback threshold as a percentile of per-worker mean feedback.
  double feedback_percentile = 75.0;
  /// Maximum mean |score - true quality| for a candidate (accuracy gate).
  double max_score_deviation = 0.6;
  /// Workers with the platform expert badge qualify regardless.
  bool trust_badges = true;
};

class ExpertPanel {
 public:
  /// Identifies the expert set from the trace.
  ExpertPanel(const data::ReviewTrace& trace,
              const data::WorkerMetrics& metrics, ExpertConfig config = {});

  const std::vector<data::WorkerId>& experts() const { return experts_; }

  /// Expert consensus with fallback: the mean expert score of a product,
  /// or, for products no expert covered, the global mean expert score (the
  /// requester's best prior). Inline: the detector reads it once per
  /// review.
  double consensus(data::ProductId id) const {
    CCD_CHECK_MSG(id < consensus_.size(), "product id out of range");
    return consensus_[id];
  }

  /// Fraction of products covered by at least one expert review.
  double coverage() const;

 private:
  std::vector<data::WorkerId> experts_;
  /// consensus(p) per product: the mean expert score, or global_mean_.
  std::vector<double> consensus_;
  std::vector<std::size_t> product_score_count_;
  double global_mean_ = 3.0;
};

}  // namespace ccd::detect
