#include "util/string_util.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ccd::util {
namespace {

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(ToLowerTest, LowercasesAscii) {
  EXPECT_EQ(to_lower("AbC-12"), "abc-12");
}

TEST(ParseDoubleTest, ParsesAndTrims) {
  EXPECT_DOUBLE_EQ(parse_double(" 2.5 "), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_THROW(parse_double("abc"), ConfigError);
  EXPECT_THROW(parse_double("1.5x"), ConfigError);
  EXPECT_THROW(parse_double(""), ConfigError);
}

TEST(ParseIntTest, ParsesAndRejects) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("4.2"), ConfigError);
  EXPECT_THROW(parse_int("x"), ConfigError);
}

TEST(ParseBoolTest, AcceptsCommonForms) {
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_TRUE(parse_bool("True"));
  EXPECT_TRUE(parse_bool("YES"));
  EXPECT_TRUE(parse_bool("on"));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_FALSE(parse_bool("false"));
  EXPECT_FALSE(parse_bool("No"));
  EXPECT_FALSE(parse_bool("off"));
  EXPECT_THROW(parse_bool("maybe"), ConfigError);
}

TEST(TrimTest, StripsTabsAndNewlinesKeepsInteriorSpace) {
  EXPECT_EQ(trim("\t a b \r\n"), "a b");
  EXPECT_EQ(trim("\n\n"), "");
}

TEST(ToLowerTest, LeavesDigitsAndPunctuationAlone) {
  EXPECT_EQ(to_lower(""), "");
  EXPECT_EQ(to_lower("MU=0.5_X"), "mu=0.5_x");
}

TEST(ParseIntTest, TrimsAndRejectsOutOfRange) {
  EXPECT_EQ(parse_int(" 12\n"), 12);
  EXPECT_THROW(parse_int("99999999999999999999"), ConfigError);
  EXPECT_THROW(parse_int(""), ConfigError);
}

// The message is what ccdctl prints for a bad key=value: it quotes the value
// as given and names the type it wanted.
TEST(ParseErrorTest, MessageQuotesTheInputAndType) {
  try {
    parse_double(" abc ");
    FAIL() << "parse_double accepted 'abc'";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "cannot parse ' abc ' as double");
  }
  try {
    parse_int("4.2");
    FAIL() << "parse_int accepted '4.2'";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "cannot parse '4.2' as integer");
  }
  try {
    parse_bool("maybe");
    FAIL() << "parse_bool accepted 'maybe'";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "cannot parse 'maybe' as bool");
  }
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

TEST(FormatDoubleTest, DefaultAndZeroPrecision) {
  EXPECT_EQ(format_double(1.0), "1.0000");
  EXPECT_EQ(format_double(2.6, 0), "3");
  EXPECT_EQ(format_double(-2.6, 0), "-3");
}

}  // namespace
}  // namespace ccd::util
