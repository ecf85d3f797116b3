// serve::Session in ingest mode with the default BiP backend, driven
// directly (no engine): refit rounds redesign every posted contract
// through the session's policy, the rounds in between keep them, a
// cancelled refit keeps the previous contracts until the next refit, and
// refits design through the engine-shared cache.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "contract/design_cache.hpp"
#include "util/cancellation.hpp"

namespace ccd::serve {
namespace {

constexpr std::uint64_t kWorkers = 4;

OpenParams ingest_open() {
  OpenParams params;
  params.mode = SessionMode::kIngest;
  params.rounds = 0;  // unbounded
  params.workers = kWorkers;
  params.refit_every = 2;
  return params;
}

std::vector<IngestObservation> round_of(std::uint64_t round) {
  std::vector<IngestObservation> observations(kWorkers);
  for (std::uint64_t w = 0; w < kWorkers; ++w) {
    IngestObservation& obs = observations[w];
    obs.effort = 1.0 + 0.25 * static_cast<double>((round + w) % 5);
    obs.feedback = 2.0 + 7.5 * obs.effort - 0.9 * obs.effort * obs.effort;
    obs.accuracy_sample = w == 0 ? 1.6 : 0.3;
  }
  return observations;
}

bool same_contracts(const std::vector<contract::Contract>& a,
                    const std::vector<contract::Contract>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_zero() != b[i].is_zero()) return false;
    if (a[i].is_zero()) continue;
    if (a[i].intervals() != b[i].intervals()) return false;
    for (std::size_t l = 0; l <= a[i].intervals(); ++l) {
      if (a[i].knot(l) != b[i].knot(l) || a[i].payment(l) != b[i].payment(l)) {
        return false;
      }
    }
  }
  return true;
}

TEST(IngestSessionTest, ContractsHoldBetweenRefits) {
  Session session("hold", ingest_open(), Session::Env{});
  std::vector<contract::Contract> before = session.contracts();
  for (const contract::Contract& c : before) EXPECT_TRUE(c.is_zero());
  for (std::uint64_t t = 0; t < 8; ++t) {
    const bool refit = (t + 1) % 2 == 0;
    EXPECT_EQ(session.ingest(round_of(t), nullptr), refit) << "round " << t;
    const std::vector<contract::Contract> after = session.contracts();
    if (refit) {
      for (const contract::Contract& c : after) {
        EXPECT_FALSE(c.is_zero()) << "round " << t;
      }
    } else {
      EXPECT_TRUE(same_contracts(after, before)) << "round " << t;
    }
    before = after;
  }
}

TEST(IngestSessionTest, CancelledRefitKeepsPreviousContracts) {
  Session clean("clean", ingest_open(), Session::Env{});
  Session cut("cut", ingest_open(), Session::Env{});
  util::CancellationToken cancelled;
  cancelled.request_cancel();

  for (std::uint64_t t = 0; t < 2; ++t) {
    clean.ingest(round_of(t), nullptr);
    cut.ingest(round_of(t), nullptr);
  }
  const std::vector<contract::Contract> first_refit = cut.contracts();
  ASSERT_TRUE(same_contracts(first_refit, clean.contracts()));

  // Round 4 is a refit round: the clean session redesigns on re-fit
  // curves, the cancelled one keeps what round 2 posted.
  for (std::uint64_t t = 2; t < 4; ++t) {
    clean.ingest(round_of(t), nullptr);
    EXPECT_FALSE(cut.ingest(round_of(t), t == 3 ? &cancelled : nullptr));
  }
  EXPECT_TRUE(same_contracts(cut.contracts(), first_refit));
  EXPECT_FALSE(same_contracts(clean.contracts(), first_refit));

  // The next refit redesigns from scratch and catches up bitwise.
  for (std::uint64_t t = 4; t < 6; ++t) {
    clean.ingest(round_of(t), nullptr);
    EXPECT_EQ(cut.ingest(round_of(t), nullptr), t == 5);
  }
  EXPECT_TRUE(same_contracts(cut.contracts(), clean.contracts()));
}

TEST(IngestSessionTest, RefitsDesignThroughTheSharedCache) {
  contract::DesignCache cache;
  Session::Env env;
  env.cache = &cache;
  Session first("first", ingest_open(), env);
  first.ingest(round_of(0), nullptr);
  EXPECT_EQ(cache.stats().lookups, 0u);  // no refit yet
  first.ingest(round_of(1), nullptr);
  const contract::DesignCacheStats after_first = cache.stats();
  EXPECT_GT(after_first.lookups, 0u);
  EXPECT_EQ(after_first.misses, cache.size());

  // A second session on the same feed designs the same specs: all hits.
  Session second("second", ingest_open(), env);
  second.ingest(round_of(0), nullptr);
  second.ingest(round_of(1), nullptr);
  const contract::DesignCacheStats after_second = cache.stats();
  EXPECT_EQ(after_second.lookups, 2 * after_first.lookups);
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_TRUE(same_contracts(second.contracts(), first.contracts()));
}

}  // namespace
}  // namespace ccd::serve
