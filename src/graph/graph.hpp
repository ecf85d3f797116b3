// Undirected graph over dense vertex ids [0, n) as an adjacency list.
//
// This is the auxiliary graph 𝒢 = (𝒰, 𝓗) of the paper's §IV-A: vertices are
// (malicious) workers, and an edge connects two workers who target the same
// product. Collusive communities are its connected components.
#pragma once

#include <cstddef>
#include <vector>

namespace ccd::graph {

class Graph {
 public:
  explicit Graph(std::size_t vertex_count = 0);

  std::size_t vertex_count() const { return adjacency_.size(); }

  /// Adds an undirected edge; self-loops and duplicate edges are allowed by
  /// the structure (callers dedupe if needed). A self-loop is listed once.
  void add_edge(std::size_t u, std::size_t v);

  const std::vector<std::size_t>& neighbors(std::size_t v) const;

 private:
  std::vector<std::vector<std::size_t>> adjacency_;
};

}  // namespace ccd::graph
