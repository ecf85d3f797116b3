#include "detect/malicious.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ccd::detect {

MaliciousDetector::MaliciousDetector(const data::ReviewTrace& trace,
                                     const ExpertPanel& experts,
                                     MaliciousDetectorConfig config) {
  CCD_CHECK_MSG(trace.indexes_built(),
                "MaliciousDetector requires trace indexes");
  probability_.assign(trace.workers().size(), config.prior);
  accuracy_distance_.assign(trace.workers().size(), kNoReviewsDistance);

  // Review ids come from the trace's own index, which build_indexes()
  // validated, so the loop indexes reviews() directly.
  const std::vector<data::Review>& reviews = trace.reviews();
  for (const data::Worker& w : trace.workers()) {
    const auto& review_ids = trace.reviews_of_worker(w.id);
    if (review_ids.empty()) continue;

    // One pass, two accumulators: the signed deviation this detector
    // scores, and the absolute one Eq. 5 weights feedback by.
    double signed_deviation = 0.0;
    double abs_deviation = 0.0;
    double unverified = 0.0;
    for (const data::ReviewId rid : review_ids) {
      const data::Review& r = reviews[rid];
      const double deviation = r.score - experts.consensus(r.product);
      signed_deviation += deviation;
      abs_deviation += std::abs(deviation);
      if (!r.verified) unverified += 1.0;
    }
    const double n = static_cast<double>(review_ids.size());
    signed_deviation /= n;
    unverified /= n;
    accuracy_distance_[w.id] = abs_deviation / n;

    // Positive bias relative to consensus is the paid-review signature;
    // logistic squash to a probability, blended with the unverified rate.
    const double core =
        1.0 / (1.0 + std::exp(-config.steepness *
                              (signed_deviation - config.midpoint)));
    double p = (1.0 - config.unverified_weight) * core +
               config.unverified_weight * unverified;

    // Shrink low-evidence workers toward the prior.
    const double confidence = std::min(
        1.0, n / static_cast<double>(config.min_reviews_full_confidence));
    p = confidence * p + (1.0 - confidence) * config.prior;
    probability_[w.id] = std::clamp(p, 0.0, 1.0);
  }
}

double MaliciousDetector::probability(data::WorkerId id) const {
  CCD_CHECK_MSG(id < probability_.size(), "worker id out of range");
  return probability_[id];
}

double MaliciousDetector::accuracy_distance(data::WorkerId id) const {
  CCD_CHECK_MSG(id < accuracy_distance_.size(), "worker id out of range");
  return accuracy_distance_[id];
}

std::vector<data::WorkerId> MaliciousDetector::flagged(double threshold) const {
  std::vector<data::WorkerId> out;
  for (data::WorkerId id = 0; id < probability_.size(); ++id) {
    if (probability_[id] >= threshold) out.push_back(id);
  }
  return out;
}

double MaliciousDetector::Quality::precision() const {
  const std::size_t denom = true_positives + false_positives;
  return denom == 0 ? 0.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double MaliciousDetector::Quality::recall() const {
  const std::size_t denom = true_positives + false_negatives;
  return denom == 0 ? 0.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double MaliciousDetector::Quality::f1() const {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

MaliciousDetector::Quality MaliciousDetector::evaluate(
    const data::ReviewTrace& trace, double threshold) const {
  // The probabilities are indexed by the worker ids of the trace the
  // detector was built on; any other worker count is another trace.
  CCD_CHECK_MSG(trace.workers().size() == probability_.size(),
                "evaluate: the trace has " << trace.workers().size()
                    << " workers, the detector was built on "
                    << probability_.size());
  Quality q;
  for (const data::Worker& w : trace.workers()) {
    const bool truly_malicious = w.true_class != data::WorkerClass::kHonest;
    const bool flagged_malicious = probability_[w.id] >= threshold;
    if (truly_malicious && flagged_malicious) ++q.true_positives;
    else if (!truly_malicious && flagged_malicious) ++q.false_positives;
    else if (truly_malicious && !flagged_malicious) ++q.false_negatives;
    else ++q.true_negatives;
  }
  return q;
}

}  // namespace ccd::detect
