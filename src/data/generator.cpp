#include "data/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace ccd::data {
namespace {

/// Number of private target products reserved for a CM community.
std::size_t community_pool_size(std::size_t community_size) {
  return std::max<std::size_t>(2, community_size / 2 + 1);
}

double clamp_score(double s) { return std::clamp(s, 1.0, 5.0); }

}  // namespace

GeneratorParams GeneratorParams::small() {
  GeneratorParams p;
  p.seed = 7;
  p.n_honest = 300;
  p.n_ncm = 25;
  p.community_sizes = {2, 2, 3, 4, 6};
  p.n_products = 1200;
  p.reviews_mu_log = 1.3;
  return p;
}

GeneratorParams GeneratorParams::medium() {
  GeneratorParams p;
  p.seed = 42;
  p.n_honest = 1800;
  p.n_ncm = 130;
  p.community_sizes = {2, 2, 2, 2, 2, 3, 3, 3, 4, 5, 6, 6, 12};
  p.n_products = 7000;
  return p;
}

GeneratorParams GeneratorParams::amazon2015() {
  GeneratorParams p;
  p.seed = 2015;
  p.n_honest = 18162;
  p.n_ncm = 1312;
  // Table II census: 47 communities, 212 workers.
  // 24 of size 2 (51.1%), 10 of size 3 (21.3%), 3 of size 4 (6.4%),
  // 1 of size 5 (2.1%), 5 of size 6 (10.6%), two mid-size, two >= 10 (4.3%).
  p.community_sizes.clear();
  for (int i = 0; i < 24; ++i) p.community_sizes.push_back(2);
  for (int i = 0; i < 10; ++i) p.community_sizes.push_back(3);
  for (int i = 0; i < 3; ++i) p.community_sizes.push_back(4);
  p.community_sizes.push_back(5);
  for (int i = 0; i < 5; ++i) p.community_sizes.push_back(6);
  p.community_sizes.push_back(7);
  p.community_sizes.push_back(8);
  p.community_sizes.push_back(35);
  p.community_sizes.push_back(37);
  p.n_products = 75508;
  p.reviews_mu_log = 1.28;  // ~118k reviews over 19,686 workers
  p.reviews_sigma_log = 0.95;
  return p;
}

GeneratorParams GeneratorParams::from_population(
    std::size_t n_workers, std::size_t n_malicious,
    std::vector<std::size_t> community_sizes, std::uint64_t seed) {
  std::size_t planted = 0;
  for (const std::size_t size : community_sizes) planted += size;
  if (planted > n_malicious) {
    std::string sizes;
    for (std::size_t i = 0; i < community_sizes.size(); ++i) {
      if (i > 0) sizes += ',';
      sizes += std::to_string(community_sizes[i]);
    }
    throw ConfigError("community_sizes [" + sizes + "] plant " +
                      std::to_string(planted) +
                      " collusive workers but the malicious budget is only " +
                      std::to_string(n_malicious) +
                      " — refusing to truncate the plant");
  }
  if (n_malicious >= n_workers) {
    throw ConfigError("malicious budget " + std::to_string(n_malicious) +
                      " leaves no honest workers in a population of " +
                      std::to_string(n_workers));
  }
  GeneratorParams p = GeneratorParams::small();
  p.seed = seed;
  p.n_honest = n_workers - n_malicious;
  p.n_ncm = n_malicious - planted;
  p.community_sizes = std::move(community_sizes);
  p.n_sybil = 0;
  // Denser review histories than small(): the score-deviation detector
  // shrinks workers below min_reviews_full_confidence toward the prior,
  // so scenario populations need enough evidence per worker for detection
  // quality to be a property of the adversary, not of sample starvation.
  p.reviews_mu_log = 1.8;
  p.min_reviews = 4;
  // Products scale with the malicious pools plus room for honest roaming.
  std::size_t reserved = p.n_ncm * 2;
  for (const std::size_t size : p.community_sizes) {
    reserved += community_pool_size(size);
  }
  p.n_products = std::max<std::size_t>(reserved + 10 + 4 * n_workers, 200);
  return p;
}

void GeneratorParams::validate() const {
  const auto check_behaviour = [](const ClassBehaviour& b, const char* name) {
    CCD_CHECK_MSG(b.a2 < 0.0, "feedback law for " << name << " must be concave (a2 < 0)");
    CCD_CHECK_MSG(b.a1 > 0.0, "feedback law for " << name << " must be increasing at 0 (a1 > 0)");
    CCD_CHECK_MSG(b.effort_cap > 0.0, "effort cap for " << name << " must be positive");
    CCD_CHECK_MSG(2.0 * b.a2 * b.effort_cap + b.a1 > 0.0,
                  "feedback law for " << name
                      << " must stay increasing up to the effort cap");
    CCD_CHECK_MSG(b.feedback_noise >= 0.0, "feedback noise must be >= 0");
    CCD_CHECK_MSG(b.score_noise >= 0.0, "score noise must be >= 0");
  };
  check_behaviour(honest, "honest");
  check_behaviour(ncm, "ncm");
  check_behaviour(cm, "cm");
  check_behaviour(sybil, "sybil");

  CCD_CHECK_MSG(n_honest > 0, "need at least one honest worker");
  CCD_CHECK_MSG(min_reviews >= 1, "min_reviews must be >= 1");
  CCD_CHECK_MSG(max_reviews >= min_reviews, "max_reviews < min_reviews");
  for (const std::size_t size : community_sizes) {
    CCD_CHECK_MSG(size >= 2, "a collusive community needs >= 2 workers");
  }
  CCD_CHECK_MSG(expert_fraction >= 0.0 && expert_fraction <= 1.0,
                "expert_fraction must be in [0,1]");
  CCD_CHECK_MSG(collusion_upvote_per_partner >= 0.0,
                "collusion upvote boost must be >= 0");
  CCD_CHECK_MSG(n_sybil == 0 || n_sybil >= 2,
                "a sybil swarm needs >= 2 identities (got " << n_sybil << ")");
  CCD_CHECK_MSG(n_sybil == 0 || sybil_pool_size >= 2,
                "sybil_pool_size must be >= 2 when the swarm is on");
  CCD_CHECK_MSG(churn_arrival_mean >= 0.0, "churn_arrival_mean must be >= 0");
  CCD_CHECK_MSG(churn_lifetime_mean >= 0.0, "churn_lifetime_mean must be >= 0");

  // Malicious workers use private product pools; make sure they fit and
  // leave a general pool for honest workers.
  std::size_t reserved = 0;
  for (const std::size_t size : community_sizes) {
    reserved += community_pool_size(size);
  }
  reserved += n_ncm * 2;  // up to two private products per NCM worker
  if (n_sybil > 0) reserved += sybil_pool_size;
  CCD_CHECK_MSG(reserved + 10 <= n_products,
                "n_products too small: " << reserved
                    << " reserved for malicious pools, only " << n_products
                    << " products configured");
}

ReviewTrace generate_trace(const GeneratorParams& params) {
  params.validate();
  util::Rng rng(params.seed);
  ReviewTrace trace;

  // ---- Products -----------------------------------------------------------
  for (std::size_t i = 0; i < params.n_products; ++i) {
    Product product;
    product.id = static_cast<ProductId>(i);
    product.true_quality = rng.uniform(1.5, 5.0);
    trace.add_product(product);
  }

  // Product layout: [CM community pools][NCM private pools][general pool].
  std::size_t next_product = 0;
  std::vector<std::vector<ProductId>> community_pools;
  community_pools.reserve(params.community_sizes.size());
  for (const std::size_t size : params.community_sizes) {
    std::vector<ProductId> pool;
    const std::size_t pool_size = community_pool_size(size);
    for (std::size_t i = 0; i < pool_size; ++i) {
      pool.push_back(static_cast<ProductId>(next_product++));
    }
    community_pools.push_back(std::move(pool));
  }
  std::vector<std::vector<ProductId>> ncm_pools;
  ncm_pools.reserve(params.n_ncm);
  for (std::size_t i = 0; i < params.n_ncm; ++i) {
    ncm_pools.push_back({static_cast<ProductId>(next_product),
                         static_cast<ProductId>(next_product + 1)});
    next_product += 2;
  }
  std::vector<ProductId> sybil_pool;
  if (params.n_sybil > 0) {
    for (std::size_t i = 0; i < params.sybil_pool_size; ++i) {
      sybil_pool.push_back(static_cast<ProductId>(next_product++));
    }
  }
  const std::size_t general_begin = next_product;

  // ---- Workers ------------------------------------------------------------
  WorkerId next_worker = 0;
  const auto add_worker = [&](WorkerClass cls, std::int32_t community) {
    Worker w;
    w.id = next_worker++;
    w.true_class = cls;
    w.true_community = community;
    w.skill = rng.lognormal(0.0, 0.3);
    if (cls == WorkerClass::kHonest) {
      w.expert_badge = rng.bernoulli(params.expert_fraction);
      if (w.expert_badge) w.skill *= 1.6;
    }
    trace.add_worker(w);
    return w.id;
  };

  std::vector<WorkerId> honest_ids;
  honest_ids.reserve(params.n_honest);
  for (std::size_t i = 0; i < params.n_honest; ++i) {
    honest_ids.push_back(add_worker(WorkerClass::kHonest, kNoCommunity));
  }
  std::vector<WorkerId> ncm_ids;
  ncm_ids.reserve(params.n_ncm);
  for (std::size_t i = 0; i < params.n_ncm; ++i) {
    ncm_ids.push_back(add_worker(WorkerClass::kNonCollusiveMalicious, kNoCommunity));
  }
  std::vector<std::vector<WorkerId>> community_members;
  community_members.reserve(params.community_sizes.size());
  for (std::size_t c = 0; c < params.community_sizes.size(); ++c) {
    std::vector<WorkerId> members;
    for (std::size_t i = 0; i < params.community_sizes[c]; ++i) {
      members.push_back(
          add_worker(WorkerClass::kCollusiveMalicious, static_cast<std::int32_t>(c)));
    }
    community_members.push_back(std::move(members));
  }
  // Sybil swarm: appended as one extra ground-truth community, so the
  // clustering metrics can score recall against it like any planted CM group.
  std::vector<WorkerId> sybil_ids;
  sybil_ids.reserve(params.n_sybil);
  for (std::size_t i = 0; i < params.n_sybil; ++i) {
    sybil_ids.push_back(
        add_worker(WorkerClass::kCollusiveMalicious,
                   static_cast<std::int32_t>(params.community_sizes.size())));
  }

  // ---- Reviews ------------------------------------------------------------
  ReviewId next_review = 0;
  const auto review_count = [&]() {
    const double draw =
        std::round(rng.lognormal(params.reviews_mu_log, params.reviews_sigma_log));
    const double clamped = std::clamp(
        draw, static_cast<double>(params.min_reviews),
        static_cast<double>(params.max_reviews));
    return static_cast<std::size_t>(clamped);
  };

  // Worker churn: the activity window [arrival, arrival + lifetime) ∩
  // [0, campaign_rounds) bounds how many reviews the worker can place
  // (the trace's `round` field stays the per-worker sequential index the
  // schema requires). Late arrivals and short lifetimes truncate review
  // histories — the mid-campaign arrival/departure effect detection must
  // survive. With churn off nothing is drawn from the RNG, keeping legacy
  // seeded traces bitwise intact.
  const auto churned_count = [&](std::size_t n) {
    if (params.campaign_rounds == 0) return n;
    const std::uint64_t arrival = std::min<std::uint64_t>(
        rng.poisson(params.churn_arrival_mean), params.campaign_rounds - 1);
    const std::uint64_t lifetime = 1 + rng.poisson(params.churn_lifetime_mean);
    const auto window = static_cast<std::size_t>(
        std::min<std::uint64_t>(lifetime, params.campaign_rounds - arrival));
    return std::clamp(n, params.min_reviews, std::max(params.min_reviews, window));
  };

  // One review from `worker` on `product` with the class behaviour `b`.
  // `partner_count` > 0 adds the collusion upvote boost.
  const auto emit_review = [&](const Worker& worker, ProductId product,
                               std::uint32_t round, const ClassBehaviour& b,
                               std::size_t partner_count) {
    // Latent effort.
    double y = rng.lognormal(b.effort_mu_log, b.effort_sigma_log);
    y = std::clamp(y, 0.05, b.effort_cap);

    // Feedback from the concave law + noise (+ collusion boost).
    double q = b.a2 * y * y + b.a1 * y + b.a0;
    q += rng.normal(0.0, b.feedback_noise);
    if (partner_count > 0) {
      q += static_cast<double>(rng.poisson(
          params.collusion_upvote_per_partner * static_cast<double>(partner_count)));
    }
    const auto upvotes = static_cast<std::uint32_t>(std::max(0.0, std::round(q)));

    // Score: honest tracks quality, malicious is positively biased.
    double score;
    if (worker.true_class == WorkerClass::kHonest) {
      score = clamp_score(trace.product(product).true_quality +
                          rng.normal(0.0, b.score_noise));
    } else {
      score = clamp_score(b.score_bias_target + rng.normal(0.0, b.score_noise));
    }

    // Review body length scales with effort (the paper's §V proxy), with
    // per-review noise.
    const double chars = y * 150.0 * rng.uniform(0.8, 1.2);
    const auto length = static_cast<std::uint32_t>(std::max(20.0, std::round(chars)));

    const double verified_prob = worker.true_class == WorkerClass::kHonest
                                     ? params.verified_prob_honest
                                     : params.verified_prob_malicious;
    Review r;
    r.id = next_review++;
    r.worker = worker.id;
    r.product = product;
    r.round = round;
    r.score = score;
    r.length_chars = length;
    r.upvotes = upvotes;
    r.verified = rng.bernoulli(verified_prob);
    trace.add_review(r);
  };

  // Honest workers roam the general product pool.
  CCD_CHECK(general_begin < params.n_products);
  for (const WorkerId id : honest_ids) {
    const std::size_t n = churned_count(review_count());
    for (std::size_t k = 0; k < n; ++k) {
      const auto product = static_cast<ProductId>(rng.uniform_int(
          static_cast<std::int64_t>(general_begin),
          static_cast<std::int64_t>(params.n_products) - 1));
      emit_review(trace.worker(id), product, static_cast<std::uint32_t>(k),
                  params.honest, 0);
    }
  }

  // NCM workers stay on their private products, so the same-target collusion
  // rule never links them to anyone.
  for (std::size_t i = 0; i < ncm_ids.size(); ++i) {
    const std::size_t n = churned_count(review_count());
    for (std::size_t k = 0; k < n; ++k) {
      const ProductId product =
          ncm_pools[i][static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(ncm_pools[i].size()) - 1))];
      emit_review(trace.worker(ncm_ids[i]), product,
                  static_cast<std::uint32_t>(k), params.ncm, 0);
    }
  }

  // CM workers review their community pool; the first review is pinned to
  // the pool's anchor product so every member provably shares a target with
  // the rest of the community (the auxiliary graph's component is exact).
  for (std::size_t c = 0; c < community_members.size(); ++c) {
    const std::vector<ProductId>& pool = community_pools[c];
    const std::size_t partners = community_members[c].size() - 1;
    for (const WorkerId id : community_members[c]) {
      const std::size_t n = churned_count(review_count());
      for (std::size_t k = 0; k < n; ++k) {
        const ProductId product =
            k == 0 ? pool.front()
                   : pool[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(pool.size()) - 1))];
        emit_review(trace.worker(id), product, static_cast<std::uint32_t>(k),
                    params.cm, partners);
      }
    }
  }

  // Sybil identities all work the swarm's shared pool (first review pinned
  // to the anchor, like a CM community) and pump each other's feedback.
  if (params.n_sybil > 0) {
    const std::size_t partners = params.n_sybil - 1;
    for (const WorkerId id : sybil_ids) {
      const std::size_t n = churned_count(review_count());
      for (std::size_t k = 0; k < n; ++k) {
        const ProductId product =
            k == 0 ? sybil_pool.front()
                   : sybil_pool[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(sybil_pool.size()) - 1))];
        emit_review(trace.worker(id), product, static_cast<std::uint32_t>(k),
                    params.sybil, partners);
      }
    }
  }

  trace.build_indexes();
  trace.validate();
  CCD_LOG_DEBUG << "generated trace: " << trace.stats().to_string();
  return trace;
}

}  // namespace ccd::data
