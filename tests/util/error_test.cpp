#include "util/error.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/logging.hpp"

namespace ccd {
namespace {

TEST(ErrorTest, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw ConfigError("c"), Error);
  EXPECT_THROW(throw DataError("d"), Error);
  EXPECT_THROW(throw MathError("m"), Error);
  EXPECT_THROW(throw ContractError("x"), Error);
  EXPECT_THROW(throw Error("e"), std::runtime_error);
}

TEST(ErrorTest, MessagesArePreserved) {
  try {
    throw DataError("broken row 17");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "broken row 17");
  }
}

TEST(ErrorTest, StableCodesAndExitCodes) {
  EXPECT_EQ(Error("e").code(), ErrorCode::kGeneric);
  EXPECT_EQ(ConfigError("c").code(), ErrorCode::kConfig);
  EXPECT_EQ(DataError("d").code(), ErrorCode::kData);
  EXPECT_EQ(MathError("m").code(), ErrorCode::kMath);
  EXPECT_EQ(ContractError("x").code(), ErrorCode::kContract);
  EXPECT_EQ(exit_code(ErrorCode::kGeneric), 1);
  EXPECT_EQ(exit_code(ErrorCode::kConfig), 2);
  EXPECT_EQ(exit_code(ErrorCode::kData), 3);
  EXPECT_EQ(exit_code(ErrorCode::kMath), 4);
  EXPECT_EQ(exit_code(ErrorCode::kContract), 5);
  EXPECT_STREQ(to_string(ErrorCode::kMath), "math");
}

// The user-input checks: a ConfigError (exit 2) carrying the message alone,
// with none of CCD_CHECK's expression or source location.
TEST(RequireConfigTest, ThrowsConfigErrorWithTheMessageAlone) {
  EXPECT_NO_THROW(require_config(true, "unused"));
  try {
    require_config(false, "rounds must be >= 1");
    FAIL() << "require_config(false) did not throw";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "rounds must be >= 1");
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_EQ(exit_code(e.code()), 2);
  }
}

TEST(ErrorTest, ContextRendersInWhat) {
  MathError e("singular matrix");
  e.with_stage("fit").with_worker(12).with_round(3);
  EXPECT_STREQ(e.what(), "singular matrix [stage=fit worker=12 round=3]");
  EXPECT_EQ(e.message(), "singular matrix");
  EXPECT_EQ(e.context().stage, "fit");
  EXPECT_EQ(e.context().worker, 12);
  EXPECT_EQ(e.context().round, 3);
}

TEST(ErrorTest, InnermostAnnotationWins) {
  DataError e("bad record");
  e.with_worker(7);
  e.with_worker(99);  // outer boundary annotates later; must not overwrite
  e.with_stage("sanitize");
  e.with_stage("solve");
  EXPECT_EQ(e.context().worker, 7);
  EXPECT_EQ(e.context().stage, "sanitize");
}

TEST(ErrorTest, SuppressedFailuresAppendNote) {
  MathError e("first failure");
  e.with_suppressed_failures(3);
  EXPECT_STREQ(e.what(), "first failure (+3 more task failures)");
  e.with_stage("solve");
  EXPECT_STREQ(e.what(), "first failure [stage=solve] (+3 more task failures)");
}

TEST(ErrorTest, RethrowPreservesDynamicType) {
  // The mutate-and-rethrow idiom at recovery boundaries must not slice.
  try {
    try {
      throw MathError("inner");
    } catch (Error& e) {
      e.with_stage("fit");
      throw;
    }
  } catch (const MathError& e) {
    EXPECT_STREQ(e.what(), "inner [stage=fit]");
  } catch (...) {
    FAIL() << "dynamic type was lost";
  }
}

TEST(CheckMacroTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(CCD_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(CCD_CHECK_MSG(true, "never shown"));
}

TEST(CheckMacroTest, FailureCarriesExpressionAndLocation) {
  try {
    CCD_CHECK(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("error_test.cpp"), std::string::npos);
  }
}

TEST(CheckMacroTest, MessageStreamingWorks) {
  try {
    const int got = 7;
    CCD_CHECK_MSG(got == 3, "expected 3, got " << got);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("expected 3, got 7"),
              std::string::npos);
  }
}

TEST(LoggerTest, RespectsLevelThreshold) {
  util::Logger& logger = util::Logger::instance();
  std::ostringstream sink;
  logger.set_sink(&sink);

  logger.set_level(util::LogLevel::kWarn);
  CCD_LOG_INFO << "info-hidden";
  CCD_LOG_WARN << "warn-shown";
  CCD_LOG_ERROR << "error-shown";

  logger.set_level(util::LogLevel::kInfo);  // the default
  logger.set_sink(nullptr);

  const std::string out = sink.str();
  EXPECT_EQ(out.find("info-hidden"), std::string::npos);
  EXPECT_NE(out.find("warn-shown"), std::string::npos);
  EXPECT_NE(out.find("error-shown"), std::string::npos);
  EXPECT_NE(out.find("[WARN]"), std::string::npos);
}

TEST(LoggerTest, LevelNames) {
  EXPECT_STREQ(util::to_string(util::LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(util::to_string(util::LogLevel::kInfo), "INFO");
  EXPECT_STREQ(util::to_string(util::LogLevel::kWarn), "WARN");
  EXPECT_STREQ(util::to_string(util::LogLevel::kError), "ERROR");
  EXPECT_STREQ(util::to_string(util::LogLevel::kOff), "OFF");
}

}  // namespace
}  // namespace ccd
