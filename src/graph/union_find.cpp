#include "graph/union_find.hpp"

#include "util/error.hpp"

namespace ccd::graph {

UnionFind::UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t UnionFind::find(std::size_t x) {
  CCD_CHECK_MSG(x < parent_.size(), "UnionFind::find out of range");
  std::size_t root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {
    const std::size_t next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  return true;
}

}  // namespace ccd::graph
