// Derived per-worker / per-review quantities — the paper's §V
// parametrization of the model on the review trace:
//
//  1. feedback of a review  = its helpfulness upvotes,
//  2. expertise of a worker = average feedback over the worker's reviews,
//  3. length of a review    = its character count,
//  4. effort level          = expertise x length (normalized).
//
// The raw expertise x length product is in arbitrary units, so WorkerMetrics
// rescales it to a dimensionless effort level with a configurable mean;
// downstream contract math then works on a stable numeric range regardless
// of trace scale.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/trace.hpp"

namespace ccd::data {

struct MetricsConfig {
  /// Global mean of the normalized effort level.
  double target_mean_effort = 1.6;
};

/// One (effort, feedback) observation — the unit the effort-function fitting
/// and the per-class comparisons consume.
struct EffortSample {
  WorkerId worker = 0;
  ReviewId review = 0;
  double effort = 0.0;
  double feedback = 0.0;
};

class WorkerMetrics {
 public:
  /// Computes expertise and the effort normalizer from `trace` (indexes must
  /// be built).
  WorkerMetrics(const ReviewTrace& trace, MetricsConfig config = {});

  /// Average upvotes over the worker's reviews (0 if the worker has none).
  double expertise(WorkerId id) const;

  /// Normalized effort level of a review.
  double effort_level(ReviewId id) const;

  /// Feedback (upvotes) of a review.
  double feedback(ReviewId id) const;

  /// All samples of workers in the given class.
  std::vector<EffortSample> samples_of_class(WorkerClass cls) const;

  /// Number of samples of workers in the given class.
  std::size_t class_sample_count(WorkerClass cls) const;

  /// samples_of_class(cls) read as two columns into caller-owned buffers of
  /// class_sample_count(cls) doubles each: effort[i] and feedback[i] are
  /// sample i's fields, in its order and bit for bit. Returns sample 0's
  /// worker (0 when the class has no samples).
  WorkerId class_columns(WorkerClass cls, std::span<double> effort,
                         std::span<double> feedback) const;

  /// A worker's mean feedback, summed in review order: the reference that
  /// expertise() is tested against bit for bit.
  double mean_feedback_of_worker(WorkerId id) const;

 private:
  /// visit(worker, review, effort, feedback) on each sample of class cls,
  /// in samples_of_class's order.
  template <typename Visit>
  void for_each_class_sample(WorkerClass cls, Visit&& visit) const;

  const ReviewTrace& trace_;
  std::vector<double> expertise_;
  double effort_scale_ = 1.0;
};

}  // namespace ccd::data
