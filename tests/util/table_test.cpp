#include "util/table.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ccd::util {
namespace {

TEST(TextTableTest, RendersHeaderAndRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTableTest, ColumnsAlignToWidestCell) {
  TextTable table({"c"});
  table.add_row({"wide-cell-content"});
  const std::string out = table.render();
  // Every line should have the same length (aligned columns).
  std::size_t expected = out.find('\n');
  std::size_t start = 0;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    if (end == std::string::npos) break;
    EXPECT_EQ(end - start, expected);
    start = end + 1;
  }
}

TEST(TextTableTest, RenderLayoutIsExact) {
  TextTable table({"a", "bb"});
  table.add_row({"ccc", "d"});
  EXPECT_EQ(table.render(),
            "+-----+----+\n"
            "| a   | bb |\n"
            "+-----+----+\n"
            "| ccc | d  |\n"
            "+-----+----+\n");
}

TEST(TextTableTest, HeaderOnlyAndEmptyCells) {
  TextTable table({"x", ""});
  EXPECT_EQ(table.render(),
            "+---+--+\n"
            "| x |  |\n"
            "+---+--+\n"
            "+---+--+\n");
  table.add_row({"", ""});
  EXPECT_EQ(table.render(),
            "+---+--+\n"
            "| x |  |\n"
            "+---+--+\n"
            "|   |  |\n"
            "+---+--+\n");
}

TEST(TextTableTest, RejectsWrongArity) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(TextTableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), Error);
}

}  // namespace
}  // namespace ccd::util
