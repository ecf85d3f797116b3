#include "data/trace.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace ccd::data {

const char* to_string(WorkerClass c) {
  switch (c) {
    case WorkerClass::kHonest: return "honest";
    case WorkerClass::kNonCollusiveMalicious: return "ncm";
    case WorkerClass::kCollusiveMalicious: return "cm";
  }
  return "?";
}

WorkerClass worker_class_from_string(const std::string& s) {
  const std::string t = util::to_lower(util::trim(s));
  if (t == "honest") return WorkerClass::kHonest;
  if (t == "ncm") return WorkerClass::kNonCollusiveMalicious;
  if (t == "cm") return WorkerClass::kCollusiveMalicious;
  throw DataError("unknown worker class: '" + s + "'");
}

std::string TraceStats::to_string() const {
  std::ostringstream os;
  os << "workers=" << workers << " (honest=" << honest_workers
     << ", ncm=" << ncm_workers << ", cm=" << cm_workers
     << ", communities=" << true_communities << ") products=" << products
     << " reviews=" << reviews
     << " reviews/worker=" << util::format_double(mean_reviews_per_worker, 2)
     << " mean_upvotes=" << util::format_double(mean_upvotes, 2)
     << " mean_length=" << util::format_double(mean_length, 1);
  return os.str();
}

void ReviewTrace::add_worker(Worker worker) {
  CCD_CHECK_MSG(worker.id == workers_.size(),
                "worker ids must be dense and in order");
  workers_.push_back(worker);
  indexes_built_ = false;
}

void ReviewTrace::add_product(Product product) {
  CCD_CHECK_MSG(product.id == products_.size(),
                "product ids must be dense and in order");
  products_.push_back(product);
  indexes_built_ = false;
}

void ReviewTrace::add_review(Review review) {
  CCD_CHECK_MSG(review.id == reviews_.size(),
                "review ids must be dense and in order");
  reviews_.push_back(review);
  indexes_built_ = false;
}

const Worker& ReviewTrace::worker(WorkerId id) const {
  CCD_CHECK_MSG(id < workers_.size(), "worker id out of range");
  return workers_[id];
}

const Product& ReviewTrace::product(ProductId id) const {
  CCD_CHECK_MSG(id < products_.size(), "product id out of range");
  return products_[id];
}

const Review& ReviewTrace::review(ReviewId id) const {
  CCD_CHECK_MSG(id < reviews_.size(), "review id out of range");
  return reviews_[id];
}

std::span<const ReviewId> ReviewTrace::reviews_of_worker(WorkerId id) const {
  CCD_CHECK_MSG(indexes_built_, "call build_indexes() first");
  CCD_CHECK_MSG(std::size_t{id} + 1 < worker_offsets_.size(),
                "worker id out of range");
  return std::span<const ReviewId>(worker_reviews_)
      .subspan(worker_offsets_[id],
               worker_offsets_[id + 1] - worker_offsets_[id]);
}

std::span<const ReviewId> ReviewTrace::reviews_of_product(
    ProductId id) const {
  CCD_CHECK_MSG(indexes_built_, "call build_indexes() first");
  CCD_CHECK_MSG(std::size_t{id} + 1 < product_offsets_.size(),
                "product id out of range");
  return std::span<const ReviewId>(product_reviews_)
      .subspan(product_offsets_[id],
               product_offsets_[id + 1] - product_offsets_[id]);
}

std::vector<ProductId> ReviewTrace::products_of_worker(WorkerId id) const {
  const std::span<const ReviewId> review_ids = reviews_of_worker(id);
  std::vector<ProductId> products;
  products.reserve(review_ids.size());
  for (const ReviewId rid : review_ids) {
    products.push_back(reviews_[rid].product);
  }
  std::sort(products.begin(), products.end());
  products.erase(std::unique(products.begin(), products.end()),
                 products.end());
  return products;
}

void ReviewTrace::build_indexes() {
  // A counting sort by worker and by product: count each row's reviews,
  // turn the counts into row starts, then place every id at its row's
  // cursor in review order, so each row lists its ids ascending.
  indexes_built_ = false;
  worker_offsets_.assign(workers_.size() + 1, 0);
  product_offsets_.assign(products_.size() + 1, 0);
  for (const Review& r : reviews_) {
    CCD_CHECK_MSG(r.worker < workers_.size(), "review references bad worker");
    CCD_CHECK_MSG(r.product < products_.size(),
                  "review references bad product");
    ++worker_offsets_[r.worker + 1];
    ++product_offsets_[r.product + 1];
  }
  std::partial_sum(worker_offsets_.begin(), worker_offsets_.end(),
                   worker_offsets_.begin());
  std::partial_sum(product_offsets_.begin(), product_offsets_.end(),
                   product_offsets_.begin());
  std::vector<std::size_t> worker_next(worker_offsets_.begin(),
                                       worker_offsets_.end() - 1);
  std::vector<std::size_t> product_next(product_offsets_.begin(),
                                        product_offsets_.end() - 1);
  worker_reviews_.resize(reviews_.size());
  product_reviews_.resize(reviews_.size());
  for (const Review& r : reviews_) {
    worker_reviews_[worker_next[r.worker]++] = r.id;
    product_reviews_[product_next[r.product]++] = r.id;
  }
  indexes_built_ = true;
}

void ReviewTrace::validate() const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = workers_[i];
    if (w.id != i) throw DataError("worker id not dense at index " + std::to_string(i));
    if (!std::isfinite(w.skill)) {
      throw DataError("non-finite skill for worker " + std::to_string(i));
    }
    if (w.true_class == WorkerClass::kCollusiveMalicious &&
        w.true_community == kNoCommunity) {
      throw DataError("CM worker " + std::to_string(i) + " has no community");
    }
    if (w.true_class != WorkerClass::kCollusiveMalicious &&
        w.true_community != kNoCommunity) {
      throw DataError("non-CM worker " + std::to_string(i) +
                      " has a community label");
    }
  }
  for (std::size_t i = 0; i < products_.size(); ++i) {
    if (products_[i].id != i) {
      throw DataError("product id not dense at index " + std::to_string(i));
    }
    if (!std::isfinite(products_[i].true_quality) ||
        products_[i].true_quality < 1.0 || products_[i].true_quality > 5.0) {
      throw DataError("product quality outside [1,5] at " + std::to_string(i));
    }
  }
  std::vector<std::uint32_t> next_round(workers_.size(), 0);
  for (std::size_t i = 0; i < reviews_.size(); ++i) {
    const Review& r = reviews_[i];
    if (r.id != i) throw DataError("review id not dense at index " + std::to_string(i));
    if (r.worker >= workers_.size()) throw DataError("review worker out of range");
    if (r.product >= products_.size()) throw DataError("review product out of range");
    if (!std::isfinite(r.score) || r.score < 1.0 || r.score > 5.0) {
      throw DataError("review score outside [1,5] at " + std::to_string(i));
    }
    if (r.round != next_round[r.worker]) {
      throw DataError("rounds not sequential for worker " +
                      std::to_string(r.worker));
    }
    ++next_round[r.worker];
  }
}

TraceStats ReviewTrace::stats() const {
  TraceStats s;
  s.workers = workers_.size();
  s.products = products_.size();
  s.reviews = reviews_.size();
  std::set<std::int32_t> communities;
  for (const Worker& w : workers_) {
    switch (w.true_class) {
      case WorkerClass::kHonest: ++s.honest_workers; break;
      case WorkerClass::kNonCollusiveMalicious: ++s.ncm_workers; break;
      case WorkerClass::kCollusiveMalicious:
        ++s.cm_workers;
        communities.insert(w.true_community);
        break;
    }
  }
  s.true_communities = communities.size();
  if (!workers_.empty()) {
    s.mean_reviews_per_worker =
        static_cast<double>(reviews_.size()) / static_cast<double>(workers_.size());
  }
  double upvotes = 0.0;
  double length = 0.0;
  for (const Review& r : reviews_) {
    upvotes += r.upvotes;
    length += r.length_chars;
  }
  if (!reviews_.empty()) {
    s.mean_upvotes = upvotes / static_cast<double>(reviews_.size());
    s.mean_length = length / static_cast<double>(reviews_.size());
  }
  return s;
}

}  // namespace ccd::data
