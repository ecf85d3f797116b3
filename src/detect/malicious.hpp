// Maliciousness-probability estimation (the e_i^mal of Eq. 5).
//
// The paper assumes an external estimator ([14], [15] — behavioural and
// ML detectors). We implement the score-deviation detector those systems
// reduce to on review data: a worker whose ratings consistently deviate from
// expert consensus in a *biased* direction is likely malicious. The detector
// outputs a probability in [0, 1] per worker, the interface Eq. 5 consumes,
// and, from the same pass over each worker's reviews, the worker's accuracy
// distance to expert consensus, Eq. 5's other per-worker input.
#pragma once

#include <vector>

#include "data/trace.hpp"
#include "detect/expert.hpp"

namespace ccd::detect {

struct MaliciousDetectorConfig {
  /// Logistic squash steepness for mean signed deviation.
  double steepness = 2.2;
  /// Signed deviation (worker score - consensus) at which p = 0.5.
  double midpoint = 0.9;
  /// Blend weight for the unverified-purchase signal.
  double unverified_weight = 0.25;
  /// Workers with fewer reviews shrink toward the prior.
  std::size_t min_reviews_full_confidence = 5;
  double prior = 0.05;
};

class MaliciousDetector {
 public:
  MaliciousDetector(const data::ReviewTrace& trace, const ExpertPanel& experts,
                    MaliciousDetectorConfig config = {});

  /// Estimated probability that worker `id` is malicious.
  double probability(data::WorkerId id) const;

  /// Mean |score - expert consensus| over worker `id`'s reviews: the
  /// accuracy distance Eq. 5 weights feedback by. A worker with no reviews
  /// brings no usable feedback and gets kNoReviewsDistance, a stand-in for
  /// infinity that drives Eq. 5's accuracy term to ~0.
  double accuracy_distance(data::WorkerId id) const;
  static constexpr double kNoReviewsDistance = 1e9;

  /// Workers whose probability exceeds `threshold`.
  std::vector<data::WorkerId> flagged(double threshold = 0.5) const;

  /// Detection quality against ground truth labels: ROC-style counts at
  /// `threshold`.
  struct Quality {
    std::size_t true_positives = 0;
    std::size_t false_positives = 0;
    std::size_t true_negatives = 0;
    std::size_t false_negatives = 0;
    double precision() const;
    double recall() const;
    double f1() const;
  };
  /// `trace` must be the trace the detector was built on; a different
  /// worker count throws ccd::Error.
  Quality evaluate(const data::ReviewTrace& trace, double threshold = 0.5) const;

 private:
  std::vector<double> probability_;
  std::vector<double> accuracy_distance_;
};

}  // namespace ccd::detect
