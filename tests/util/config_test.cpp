#include "util/config.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ccd::util {
namespace {

ParamMap from_tokens(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ParamMap::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ParamMapTest, ParsesKeyValueArgs) {
  const ParamMap map = from_tokens({"mu=0.9", "m=40", "verbose=true"});
  EXPECT_DOUBLE_EQ(map.get_double("mu", 1.0), 0.9);
  EXPECT_EQ(map.get_int("m", 10), 40);
  EXPECT_TRUE(map.get_bool("verbose", false));
}

TEST(ParamMapTest, SkipsTokensWithoutEquals) {
  const ParamMap map = from_tokens({"--flag", "mu=2.0"});
  EXPECT_FALSE(map.contains("--flag"));
  EXPECT_TRUE(map.contains("mu"));
}

TEST(ParamMapTest, FallbacksWhenMissing) {
  const ParamMap map = from_tokens({});
  EXPECT_DOUBLE_EQ(map.get_double("mu", 1.25), 1.25);
  EXPECT_EQ(map.get_int("m", 7), 7);
  EXPECT_FALSE(map.get_bool("flag", false));
  EXPECT_EQ(map.get_string("name", "dflt"), "dflt");
}

TEST(ParamMapTest, ValueWithEqualsSign) {
  const ParamMap map = from_tokens({"expr=a=b"});
  EXPECT_EQ(map.get_string("expr", ""), "a=b");
}

TEST(ParamMapTest, BadValueThrows) {
  const ParamMap map = from_tokens({"mu=abc"});
  EXPECT_THROW(map.get_double("mu", 1.0), ConfigError);
}

TEST(ParamMapTest, AssertAllConsumedCatchesTypos) {
  const ParamMap map = from_tokens({"mu=1.0", "typo_key=3"});
  (void)map.get_double("mu", 1.0);
  EXPECT_THROW(map.assert_all_consumed(), ConfigError);
}

TEST(ParamMapTest, AssertAllConsumedPassesWhenAllRead) {
  const ParamMap map = from_tokens({"mu=1.0", "m=5"});
  (void)map.get_double("mu", 1.0);
  (void)map.get_int("m", 1);
  EXPECT_NO_THROW(map.assert_all_consumed());
}

TEST(ParamMapTest, LaterDuplicateKeyWins) {
  const ParamMap map = from_tokens({"m=1", "m=2"});
  EXPECT_EQ(map.get_int("m", 0), 2);
  EXPECT_NO_THROW(map.assert_all_consumed());
}

TEST(ParamMapTest, ContainsDoesNotConsume) {
  const ParamMap map = from_tokens({"seed=7"});
  EXPECT_TRUE(map.contains("seed"));
  EXPECT_THROW(map.assert_all_consumed(), ConfigError);
  (void)map.get_int("seed", 0);
  EXPECT_NO_THROW(map.assert_all_consumed());
}

// The message is what every CLI prints for a typo: the key and its value.
TEST(ParamMapTest, UnknownParameterMessageNamesKeyAndValue) {
  const ParamMap map = from_tokens({"typo=3"});
  try {
    map.assert_all_consumed();
    FAIL() << "an unread key passed assert_all_consumed";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "unknown parameter 'typo=3'");
  }
}

TEST(ParamMapTest, TypedGettersRejectMismatchedValues) {
  const ParamMap map = from_tokens({"m=4.5", "verbose=maybe", "name="});
  EXPECT_THROW(map.get_int("m", 0), ConfigError);
  EXPECT_DOUBLE_EQ(map.get_double("m", 0.0), 4.5);
  EXPECT_THROW(map.get_bool("verbose", false), ConfigError);
  EXPECT_EQ(map.get_string("name", "dflt"), "");
  EXPECT_THROW(map.get_double("name", 1.0), ConfigError);
}

TEST(ParamMapTest, SetValuesAreRead) {
  ParamMap map;
  map.set("a", "1");
  map.set("b", "2");
  EXPECT_TRUE(map.contains("a"));
  EXPECT_EQ(map.get_int("a", 0), 1);
  EXPECT_EQ(map.get_string("b", ""), "2");
}

}  // namespace
}  // namespace ccd::util
