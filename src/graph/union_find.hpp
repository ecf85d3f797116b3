// Disjoint-set forest with path compression and union by size.
//
// Used as an alternative community-finding backend (the paper uses DFS;
// union-find lets us cluster straight from the worker->product incidence
// without materializing the quadratic same-product edge set).
#pragma once

#include <cstddef>
#include <vector>

namespace ccd::graph {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n = 0);

  /// Representative of x's set (with path compression).
  std::size_t find(std::size_t x);

  /// Merge the sets of a and b; returns true if they were distinct.
  bool unite(std::size_t a, std::size_t b);

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace ccd::graph
