#include "data/metrics.hpp"

#include "util/error.hpp"
#include "util/stats.hpp"

namespace ccd::data {

WorkerMetrics::WorkerMetrics(const ReviewTrace& trace, MetricsConfig config)
    : trace_(trace) {
  CCD_CHECK_MSG(trace.indexes_built(),
                "WorkerMetrics requires built trace indexes");
  CCD_CHECK_MSG(config.target_mean_effort > 0.0,
                "target_mean_effort must be positive");

  // Review ids below come from the trace's own index, which
  // build_indexes() validated, so the loops index reviews() directly.
  const std::vector<Review>& reviews = trace.reviews();
  expertise_.assign(trace.workers().size(), 0.0);
  for (const Worker& w : trace.workers()) {
    const auto& review_ids = trace.reviews_of_worker(w.id);
    if (review_ids.empty()) continue;
    double total = 0.0;
    for (const ReviewId rid : review_ids) {
      total += reviews[rid].upvotes;
    }
    expertise_[w.id] = total / static_cast<double>(review_ids.size());
  }

  // Normalize expertise x length so the global mean effort is the target.
  util::Accumulator raw;
  for (const Review& r : trace.reviews()) {
    raw.add(expertise_[r.worker] * static_cast<double>(r.length_chars));
  }
  if (raw.count() > 0 && raw.mean() > 0.0) {
    effort_scale_ = config.target_mean_effort / raw.mean();
  }
}

double WorkerMetrics::expertise(WorkerId id) const {
  CCD_CHECK_MSG(id < expertise_.size(), "worker id out of range");
  return expertise_[id];
}

double WorkerMetrics::effort_level(ReviewId id) const {
  const Review& r = trace_.review(id);
  return expertise_[r.worker] * static_cast<double>(r.length_chars) *
         effort_scale_;
}

double WorkerMetrics::feedback(ReviewId id) const {
  return static_cast<double>(trace_.review(id).upvotes);
}

std::size_t WorkerMetrics::class_sample_count(WorkerClass cls) const {
  std::size_t count = 0;
  for (const Worker& w : trace_.workers()) {
    if (w.true_class == cls) count += trace_.reviews_of_worker(w.id).size();
  }
  return count;
}

template <typename Visit>
void WorkerMetrics::for_each_class_sample(WorkerClass cls,
                                          Visit&& visit) const {
  // The ids come from the trace's own index, which build_indexes()
  // validated; each sample is effort_level(rid), feedback(rid) inline.
  const std::vector<Review>& reviews = trace_.reviews();
  for (const Worker& w : trace_.workers()) {
    if (w.true_class != cls) continue;
    for (const ReviewId rid : trace_.reviews_of_worker(w.id)) {
      const Review& r = reviews[rid];
      visit(w.id, rid,
            expertise_[r.worker] * static_cast<double>(r.length_chars) *
                effort_scale_,
            static_cast<double>(r.upvotes));
    }
  }
}

std::vector<EffortSample> WorkerMetrics::samples_of_class(
    WorkerClass cls) const {
  std::vector<EffortSample> out;
  out.reserve(class_sample_count(cls));
  for_each_class_sample(cls, [&](WorkerId worker, ReviewId rid, double effort,
                                 double feedback) {
    out.push_back({worker, rid, effort, feedback});
  });
  return out;
}

WorkerId WorkerMetrics::class_columns(WorkerClass cls,
                                      std::span<double> effort,
                                      std::span<double> feedback) const {
  const std::size_t count = effort.size();
  CCD_CHECK_MSG(feedback.size() == count,
                "class_columns: effort and feedback columns differ in size");
  WorkerId first = 0;
  std::size_t i = 0;
  for_each_class_sample(cls, [&](WorkerId worker, ReviewId, double e,
                                 double f) {
    CCD_CHECK_MSG(i < count, "class_columns: the class has more than "
                                 << count << " samples");
    if (i == 0) first = worker;
    effort[i] = e;
    feedback[i] = f;
    ++i;
  });
  CCD_CHECK_MSG(i == count, "class_columns: the class has " << i
                                << " samples, the columns hold " << count);
  return first;
}

double WorkerMetrics::mean_feedback_of_worker(WorkerId id) const {
  const auto& review_ids = trace_.reviews_of_worker(id);
  if (review_ids.empty()) return 0.0;
  double total = 0.0;
  for (const ReviewId rid : review_ids) total += feedback(rid);
  return total / static_cast<double>(review_ids.size());
}

}  // namespace ccd::data
