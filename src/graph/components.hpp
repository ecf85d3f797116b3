// Connected components of an undirected graph (iterative DFS, as the paper
// prescribes in §IV-A for finding collusive communities).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace ccd::graph {

struct ComponentResult {
  /// component_of[v] is the 0-based component index of vertex v.
  std::vector<std::size_t> component_of;
  /// members[c] lists the vertices of component c, in discovery order.
  std::vector<std::vector<std::size_t>> members;
};

/// DFS-based connected components.
ComponentResult connected_components(const Graph& graph);

/// BFS variant (identical partition, used to cross-check the DFS in tests).
ComponentResult connected_components_bfs(const Graph& graph);

}  // namespace ccd::graph
