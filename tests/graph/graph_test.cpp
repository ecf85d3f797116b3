#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace ccd::graph {
namespace {

TEST(GraphTest, EmptyGraph) {
  const Graph g(0);
  EXPECT_EQ(g.vertex_count(), 0u);
}

TEST(GraphTest, AddEdgeIsUndirected) {
  Graph g(3);
  g.add_edge(0, 2);
  EXPECT_EQ(g.neighbors(0), std::vector<std::size_t>{2});
  EXPECT_EQ(g.neighbors(2), std::vector<std::size_t>{0});
  EXPECT_TRUE(g.neighbors(1).empty());
}

TEST(GraphTest, NeighborsListBothDirections) {
  Graph g(4);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
  EXPECT_EQ(g.neighbors(2).size(), 1u);
  EXPECT_EQ(g.neighbors(2).front(), 1u);
}

TEST(GraphTest, SelfLoopCountsOnce) {
  Graph g(2);
  g.add_edge(0, 0);
  EXPECT_EQ(g.neighbors(0), std::vector<std::size_t>{0});
}

TEST(GraphTest, ParallelEdgesAreKept) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(g.neighbors(0), (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(g.neighbors(1), (std::vector<std::size_t>{0, 0}));
}

TEST(GraphTest, NeighborsKeepInsertionOrder) {
  Graph g(4);
  g.add_edge(0, 3);
  g.add_edge(0, 1);
  g.add_edge(2, 0);
  EXPECT_EQ(g.neighbors(0), (std::vector<std::size_t>{3, 1, 2}));
}

TEST(GraphTest, OutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), Error);
  EXPECT_THROW(g.neighbors(5), Error);
}

}  // namespace
}  // namespace ccd::graph
