#include "tasks/campaign.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ccd::tasks {
namespace {

std::vector<LabelerSpec> mixed_pool() {
  std::vector<LabelerSpec> pool;
  for (int i = 0; i < 8; ++i) {
    LabelerSpec s;
    s.name = "diligent" + std::to_string(i);
    s.accuracy.cap = 0.93;
    s.accuracy.rate = 1.1;
    pool.push_back(s);
  }
  for (int i = 0; i < 2; ++i) {
    LabelerSpec s;
    s.name = "adv" + std::to_string(i);
    s.type = LabelerType::kAdversarial;
    s.omega = 0.5;
    s.target_label = true;
    pool.push_back(s);
  }
  LabelerSpec spammer;
  spammer.name = "spam";
  spammer.type = LabelerType::kSpammer;
  pool.push_back(spammer);
  return pool;
}

class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new CampaignResult(run_campaign(mixed_pool(), CampaignConfig{}));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static CampaignResult* result_;
};

CampaignResult* CampaignTest::result_ = nullptr;

TEST_F(CampaignTest, OneOutcomePerLabeler) {
  EXPECT_EQ(result_->labelers.size(), mixed_pool().size());
}

TEST_F(CampaignTest, ContractBeatsFlatPayOnQuality) {
  EXPECT_GT(result_->accuracy_majority,
            result_->baseline_accuracy_majority + 0.03);
}

TEST_F(CampaignTest, WeightedVoteBeatsMajority) {
  EXPECT_GE(result_->accuracy_weighted, result_->accuracy_majority - 1e-9);
}

TEST_F(CampaignTest, ContractBeatsFlatPayOnUtility) {
  EXPECT_GT(result_->requester_utility,
            result_->baseline_requester_utility);
}

TEST_F(CampaignTest, AdversariesAreSuspectedAndDiligentAreNot) {
  for (const LabelerOutcome& out : result_->labelers) {
    if (out.spec.type == LabelerType::kAdversarial) {
      EXPECT_TRUE(out.suspected_adversarial) << out.spec.name;
    }
    if (out.spec.type == LabelerType::kDiligent) {
      EXPECT_FALSE(out.suspected_adversarial) << out.spec.name;
    }
  }
}

TEST_F(CampaignTest, DiligentWorkersEarnMost) {
  double diligent_pay = 0.0;
  std::size_t diligent_n = 0;
  double other_pay = 0.0;
  std::size_t other_n = 0;
  for (const LabelerOutcome& out : result_->labelers) {
    if (out.spec.type == LabelerType::kDiligent) {
      diligent_pay += out.mean_pay;
      ++diligent_n;
    } else {
      other_pay += out.mean_pay;
      ++other_n;
    }
  }
  EXPECT_GT(diligent_pay / static_cast<double>(diligent_n),
            2.0 * other_pay / static_cast<double>(other_n));
}

TEST_F(CampaignTest, DiligentCorrectnessAboveChance) {
  for (const LabelerOutcome& out : result_->labelers) {
    if (out.spec.type == LabelerType::kDiligent) {
      EXPECT_GT(out.mean_correct_rate, 0.65) << out.spec.name;
    }
    if (out.spec.type == LabelerType::kSpammer) {
      EXPECT_NEAR(out.mean_correct_rate, 0.5, 0.1) << out.spec.name;
    }
  }
}

TEST_F(CampaignTest, WeightsRewardAccuracy) {
  double best_diligent = 0.0;
  double best_other = 0.0;
  for (const LabelerOutcome& out : result_->labelers) {
    if (out.spec.type == LabelerType::kDiligent) {
      best_diligent = std::max(best_diligent, out.weight);
    } else {
      best_other = std::max(best_other, out.weight);
    }
  }
  EXPECT_GT(best_diligent, best_other);
}

TEST_F(CampaignTest, FittedCurvesAreFeasible) {
  for (const LabelerOutcome& out : result_->labelers) {
    EXPECT_LT(out.fit.model.r2(), 0.0);
    EXPECT_GT(out.fit.model.r1(), 0.0);
  }
}

TEST(CampaignDeterminismTest, SameSeedSameResult) {
  const CampaignResult a = run_campaign(mixed_pool(), CampaignConfig{});
  const CampaignResult b = run_campaign(mixed_pool(), CampaignConfig{});
  EXPECT_DOUBLE_EQ(a.accuracy_majority, b.accuracy_majority);
  EXPECT_DOUBLE_EQ(a.requester_utility, b.requester_utility);
}

TEST(CampaignConfigTest, Validation) {
  CampaignConfig c;
  c.calibration_rounds = 1;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.mu = 0.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.difficulty_lo = 0.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  EXPECT_THROW(run_campaign({}, c), Error);
}

TEST(CampaignAllDiligentTest, HighQualityAndEveryonePaid) {
  std::vector<LabelerSpec> pool;
  for (int i = 0; i < 7; ++i) {
    LabelerSpec s;
    s.name = std::string("d").append(std::to_string(i));
    pool.push_back(s);
  }
  CampaignConfig config;
  config.seed = 99;
  const CampaignResult r = run_campaign(pool, config);
  EXPECT_GT(r.accuracy_majority, 0.9);
  for (const LabelerOutcome& out : r.labelers) {
    EXPECT_GT(out.mean_pay, 0.0) << out.spec.name;
  }
}

}  // namespace
}  // namespace ccd::tasks
