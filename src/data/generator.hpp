// Synthetic Amazon-like review-trace generator.
//
// The paper evaluates on a proprietary crawl of Amazon reviews with
// ground-truth malicious labels (Fayazi et al., SIGIR'15). That trace is not
// public, so this generator produces a synthetic trace with the same schema
// and — at the `amazon2015()` preset — the same headline statistics:
// ~19,686 reviewers (18,162 honest + 1,312 NCM + 212 CM), ~75,508 products,
// ~118k reviews, and 47 collusive communities whose size distribution
// matches Table II. Per-class behaviour matches the shapes the paper
// measures (Fig. 7, Table III):
//
//  * every class draws latent effort from the same distribution (similar
//    average effort across classes),
//  * feedback (upvotes) follows a concave quadratic law of effort + noise,
//  * collusive workers get an extra upvote boost from their partners, which
//    inflates their feedback well above the other classes,
//  * malicious scores are positively biased regardless of product quality,
//    honest scores track true quality.
//
// Product targeting is arranged so the paper's collusion rule ("two
// malicious workers collude iff they share a target product") recovers the
// planted communities exactly: each CM community has a private product pool
// with a shared anchor product; each NCM worker has private products.
#pragma once

#include <cstdint>
#include <vector>

#include "data/trace.hpp"

namespace ccd::data {

/// Ground-truth behaviour of one worker class.
struct ClassBehaviour {
  /// Feedback law in latent effort: q(y) = a2 y^2 + a1 y + a0 (concave: a2<0).
  double a2 = -1.0;
  double a1 = 8.0;
  double a0 = 2.0;
  /// Latent per-review effort ~ LogNormal(mu_log, sigma_log), clipped.
  double effort_mu_log = 0.3;
  double effort_sigma_log = 0.5;
  double effort_cap = 3.8;
  /// Gaussian noise added to the feedback law before rounding.
  double feedback_noise = 1.2;
  /// Score model: honest uses bias 0 (score = quality + noise); malicious
  /// uses a fixed positive target (score = bias_target + noise).
  double score_bias_target = 0.0;
  double score_noise = 0.45;
};

struct GeneratorParams {
  std::uint64_t seed = 42;

  std::size_t n_honest = 1800;
  std::size_t n_ncm = 130;
  /// One entry per CM community (its worker count).
  std::vector<std::size_t> community_sizes = {2, 2, 2, 2, 3, 3, 4, 6};
  std::size_t n_products = 7000;

  /// Sybil swarm: `n_sybil` cheap identities sharing one behaviour profile
  /// and one private target pool. The swarm is planted as one ground-truth
  /// collusive community appended after `community_sizes` (the shared pool
  /// makes the paper's same-target rule link every pair), so detector /
  /// clustering recall against it is measurable. 0 disables; otherwise
  /// n_sybil >= 2.
  std::size_t n_sybil = 0;
  /// Products in the swarm's private pool (>= 2 when the swarm is on).
  std::size_t sybil_pool_size = 3;

  /// Worker churn: when `campaign_rounds` > 0 every worker is only active
  /// on a window [arrival, arrival + lifetime) ∩ [0, campaign_rounds),
  /// with arrival ~ Poisson(churn_arrival_mean) clamped into the campaign
  /// and lifetime ~ 1 + Poisson(churn_lifetime_mean). The window bounds
  /// the worker's review count (the trace's `round` field stays the
  /// per-worker sequential index the schema requires), so mid-campaign
  /// arrivals and departures show up as truncated review histories. 0
  /// keeps the legacy static population — and draws nothing from the RNG,
  /// so existing seeded traces are unchanged.
  std::size_t campaign_rounds = 0;
  double churn_arrival_mean = 0.0;
  double churn_lifetime_mean = 0.0;

  /// Reviews per worker ~ round(LogNormal), clamped to [min_reviews, ...).
  double reviews_mu_log = 1.45;
  double reviews_sigma_log = 0.9;
  std::size_t min_reviews = 1;
  std::size_t max_reviews = 200;

  /// Fraction of honest workers carrying the platform expert badge.
  double expert_fraction = 0.03;

  /// Honest: feedback law q = -y^2 + 8y + 2, scores track product quality.
  ClassBehaviour honest{};
  /// NCM: slightly weaker feedback law, strongly positive-biased scores.
  ClassBehaviour ncm{.a2 = -1.0,
                     .a1 = 7.0,
                     .a0 = 1.0,
                     .effort_cap = 3.3,
                     .score_bias_target = 4.9,
                     .score_noise = 0.25};
  /// CM: inflated feedback (community upvoting), positive-biased scores.
  /// Latent effort sits lower than the other classes: the paper's effort
  /// proxy is expertise x length, and CM expertise is upvote-inflated, so a
  /// lower latent effort keeps the *measured* per-class effort similar
  /// (Fig. 7's first observation) while CM feedback stays far higher.
  ClassBehaviour cm{.a2 = -1.8,
                    .a1 = 14.0,
                    .a0 = 6.0,
                    .effort_mu_log = -0.86,
                    .score_bias_target = 4.9,
                    .score_noise = 0.25};

  /// Sybil identities: cheap (low-effort) reviews whose feedback is pumped
  /// by the rest of the swarm, scores strongly biased.
  ClassBehaviour sybil{.a2 = -1.4,
                       .a1 = 10.0,
                       .a0 = 4.0,
                       .effort_mu_log = -1.2,
                       .effort_sigma_log = 0.35,
                       .effort_cap = 2.0,
                       .score_bias_target = 4.9,
                       .score_noise = 0.2};

  /// Mean extra upvotes a CM review receives per community partner.
  double collusion_upvote_per_partner = 1.1;

  double verified_prob_honest = 0.9;
  double verified_prob_malicious = 0.35;

  /// Small fast preset for unit tests (hundreds of workers).
  static GeneratorParams small();
  /// Medium preset for integration tests and examples (thousands).
  static GeneratorParams medium();
  /// Full-scale preset matching the paper's dataset statistics, including
  /// Table II's community-size census (47 communities, 212 CM workers).
  static GeneratorParams amazon2015();

  /// Build params from a population budget: `n_workers` total identities,
  /// `n_malicious` of them adversarial, with `community_sizes` drawn from
  /// the malicious budget and the remainder becoming NCM workers. Throws
  /// ccd::ConfigError — naming the offending values — when the community
  /// sizes overrun the malicious budget or the malicious budget overruns
  /// the population, instead of silently truncating the plant.
  static GeneratorParams from_population(std::size_t n_workers,
                                         std::size_t n_malicious,
                                         std::vector<std::size_t> community_sizes,
                                         std::uint64_t seed);

  /// Throws ccd::Error if inconsistent (e.g. not enough products for
  /// the private malicious pools, non-concave feedback laws).
  void validate() const;
};

/// Generate a full trace (indexes built, validate()d before returning).
ReviewTrace generate_trace(const GeneratorParams& params);

}  // namespace ccd::data
