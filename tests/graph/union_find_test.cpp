#include "graph/union_find.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ccd::graph {
namespace {

TEST(UnionFindTest, InitiallyAllSingletons) {
  UnionFind uf(5);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(uf.find(i), i);
}

TEST(UnionFindTest, UniteMergesComponents) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
}

TEST(UnionFindTest, UniteSameSetReturnsFalse) {
  UnionFind uf(3);
  uf.unite(0, 1);
  EXPECT_FALSE(uf.unite(1, 0));
}

TEST(UnionFindTest, TransitiveConnectivity) {
  UnionFind uf(5);
  uf.unite(0, 1);
  uf.unite(1, 2);
  uf.unite(3, 4);
  EXPECT_EQ(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(2), uf.find(3));
  EXPECT_EQ(uf.find(3), uf.find(4));
}

TEST(UnionFindTest, OutOfRangeThrows) {
  UnionFind uf(2);
  EXPECT_THROW(uf.find(2), Error);
}

TEST(UnionFindTest, EmptyStructureRejectsEveryQuery) {
  UnionFind uf(0);
  EXPECT_THROW(uf.find(0), Error);
  EXPECT_THROW(uf.unite(0, 0), Error);
}

// Union by size: the smaller set hangs under the larger set's root, whichever
// argument order unite() gets.
TEST(UnionFindTest, SmallerSetJoinsLargerRoot) {
  UnionFind uf(5);
  uf.unite(1, 2);
  uf.unite(1, 3);
  const std::size_t root = uf.find(1);
  EXPECT_TRUE(uf.unite(0, 2));
  EXPECT_EQ(uf.find(0), root);
  EXPECT_TRUE(uf.unite(4, 0));
  EXPECT_EQ(uf.find(4), root);
}

TEST(UnionFindTest, LongChainEndsInOneSet) {
  const std::size_t n = 100000;
  UnionFind uf(n);
  for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_TRUE(uf.unite(i + 1, i));
  const std::size_t root = uf.find(0);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(uf.find(i), root);
  EXPECT_FALSE(uf.unite(0, n - 1));
}

TEST(UnionFindTest, RandomizedAgainstNaiveLabels) {
  util::Rng rng(77);
  const std::size_t n = 200;
  UnionFind uf(n);
  std::vector<std::size_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = i;
  const auto relabel = [&](std::size_t from, std::size_t to) {
    for (auto& l : label) {
      if (l == from) l = to;
    }
  };
  for (int step = 0; step < 500; ++step) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    uf.unite(a, b);
    relabel(label[a], label[b]);
  }
  for (int probe = 0; probe < 1000; ++probe) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    EXPECT_EQ(uf.find(a) == uf.find(b), label[a] == label[b]);
  }
}

}  // namespace
}  // namespace ccd::graph
