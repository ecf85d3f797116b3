#include "graph/graph.hpp"

#include "util/error.hpp"

namespace ccd::graph {

Graph::Graph(std::size_t vertex_count) : adjacency_(vertex_count) {}

void Graph::add_edge(std::size_t u, std::size_t v) {
  CCD_CHECK_MSG(u < vertex_count() && v < vertex_count(),
                "add_edge vertex out of range");
  adjacency_[u].push_back(v);
  if (u != v) adjacency_[v].push_back(u);
}

const std::vector<std::size_t>& Graph::neighbors(std::size_t v) const {
  CCD_CHECK_MSG(v < vertex_count(), "neighbors vertex out of range");
  return adjacency_[v];
}

}  // namespace ccd::graph
