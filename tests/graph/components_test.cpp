#include "graph/components.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace ccd::graph {
namespace {

TEST(ComponentsTest, AllIsolatedVertices) {
  const Graph g(4);
  const ComponentResult r = connected_components(g);
  EXPECT_EQ(r.members.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.members[r.component_of[i]].front(), i);
  }
}

TEST(ComponentsTest, SingleChain) {
  Graph g(5);
  for (std::size_t i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  const ComponentResult r = connected_components(g);
  EXPECT_EQ(r.members.size(), 1u);
  EXPECT_EQ(r.members[0].size(), 5u);
}

TEST(ComponentsTest, TwoTriangles) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  const ComponentResult r = connected_components(g);
  EXPECT_EQ(r.members.size(), 2u);
  EXPECT_EQ(r.component_of[0], r.component_of[2]);
  EXPECT_NE(r.component_of[0], r.component_of[3]);
}

TEST(ComponentsTest, MembersPartitionVertices) {
  Graph g(10);
  g.add_edge(0, 9);
  g.add_edge(2, 5);
  g.add_edge(5, 7);
  const ComponentResult r = connected_components(g);
  std::size_t total = 0;
  for (const auto& comp : r.members) total += comp.size();
  EXPECT_EQ(total, 10u);
}

TEST(ComponentsTest, EmptyGraph) {
  const ComponentResult r = connected_components(Graph(0));
  EXPECT_EQ(r.members.size(), 0u);
}

TEST(ComponentsTest, DfsAndBfsAgreeOnRandomGraphs) {
  util::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 30 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    Graph g(n);
    const int edges = static_cast<int>(rng.uniform_int(0, 60));
    for (int e = 0; e < edges; ++e) {
      g.add_edge(static_cast<std::size_t>(rng.uniform_int(0, n - 1)),
                 static_cast<std::size_t>(rng.uniform_int(0, n - 1)));
    }
    const ComponentResult dfs = connected_components(g);
    const ComponentResult bfs = connected_components_bfs(g);
    ASSERT_EQ(dfs.members.size(), bfs.members.size());
    // Same partition: component ids may differ, but co-membership must match.
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        EXPECT_EQ(dfs.component_of[u] == dfs.component_of[v],
                  bfs.component_of[u] == bfs.component_of[v]);
      }
    }
  }
}

TEST(ComponentsTest, SelfLoopsAndParallelEdgesChangeNothing) {
  Graph plain(5);
  plain.add_edge(0, 1);
  plain.add_edge(3, 4);
  Graph noisy(5);
  noisy.add_edge(0, 1);
  noisy.add_edge(1, 0);
  noisy.add_edge(2, 2);
  noisy.add_edge(3, 4);
  noisy.add_edge(4, 4);
  const ComponentResult a = connected_components(plain);
  const ComponentResult b = connected_components(noisy);
  EXPECT_EQ(a.component_of, b.component_of);
  EXPECT_EQ(b.members.size(), 3u);
  EXPECT_EQ(b.members[1], std::vector<std::size_t>{2});
}

// Components are numbered in the order of their lowest vertex, and the DFS
// starts each one there.
TEST(ComponentsTest, NumberedByLowestVertex) {
  Graph g(6);
  g.add_edge(5, 2);
  g.add_edge(4, 1);
  g.add_edge(3, 0);
  const ComponentResult r = connected_components(g);
  ASSERT_EQ(r.members.size(), 3u);
  EXPECT_EQ(r.component_of, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(r.members[c].front(), c);
    EXPECT_EQ(*std::min_element(r.members[c].begin(), r.members[c].end()), c);
  }
}

// A path deeper than any call stack: the DFS is iterative.
TEST(ComponentsTest, LongPathIsOneComponent) {
  const std::size_t n = 200000;
  Graph g(n);
  for (std::size_t v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  const ComponentResult r = connected_components(g);
  ASSERT_EQ(r.members.size(), 1u);
  EXPECT_EQ(r.members[0].size(), n);
  EXPECT_EQ(r.component_of.back(), 0u);
}

TEST(ComponentsTest, StarGraph) {
  Graph g(6);
  for (std::size_t leaf = 1; leaf < 6; ++leaf) g.add_edge(0, leaf);
  const ComponentResult r = connected_components(g);
  EXPECT_EQ(r.members.size(), 1u);
  auto members = r.members[0];
  std::sort(members.begin(), members.end());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(members[i], i);
}

}  // namespace
}  // namespace ccd::graph
