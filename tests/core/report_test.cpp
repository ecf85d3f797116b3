#include "core/report.hpp"

#include <gtest/gtest.h>

#include "data/generator.hpp"

namespace ccd::core {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::ReviewTrace trace =
        data::generate_trace(data::GeneratorParams::small());
    result_ = new PipelineResult(run_pipeline(trace, PipelineConfig{}));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static PipelineResult* result_;
};

PipelineResult* ReportTest::result_ = nullptr;

TEST_F(ReportTest, CompensationRowsCoverThreeClasses) {
  const auto rows = compensation_by_class(*result_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].label, "honest");
  EXPECT_EQ(rows[1].label, "ncm");
  EXPECT_EQ(rows[2].label, "cm");
  EXPECT_EQ(rows[0].summary.count,
            data::GeneratorParams::small().n_honest);
}

TEST_F(ReportTest, EffortRowsHaveCounts) {
  const auto rows = effort_by_class(*result_);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_GT(row.summary.count, 0u);
  }
}

TEST_F(ReportTest, RenderedTableContainsClassesAndHeader) {
  const std::string table =
      render_class_table(compensation_by_class(*result_), "comp");
  EXPECT_NE(table.find("honest"), std::string::npos);
  EXPECT_NE(table.find("ncm"), std::string::npos);
  EXPECT_NE(table.find("cm"), std::string::npos);
  EXPECT_NE(table.find("mean comp"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
}

TEST_F(ReportTest, DescribeMentionsKeyNumbers) {
  const std::string text = describe_pipeline_result(*result_);
  EXPECT_NE(text.find("requester utility"), std::string::npos);
  EXPECT_NE(text.find("subproblems"), std::string::npos);
  EXPECT_NE(text.find("precision"), std::string::npos);
}

}  // namespace
}  // namespace ccd::core
