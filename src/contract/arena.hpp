// Monotonic chunked arena for per-solve numeric scratch.
//
// The fleet design path needs many short-lived double arrays per spec
// class (per-k tableau columns, per-worker resolve outputs). Allocating
// them as std::vectors churns the heap once per class per round; the arena
// hands out spans from reusable blocks instead. reset() recycles all
// memory without releasing it, so steady-state redesign rounds allocate
// nothing.
//
// Blocks never move once allocated: a pointer returned by doubles() stays
// valid until reset(), even across later allocations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace ccd::contract {

class ScratchArena {
 public:
  /// Uninitialized span of n doubles, valid until reset().
  double* doubles(std::size_t n) {
    if (n == 0) return nullptr;
    while (active_ < blocks_.size()) {
      Block& block = blocks_[active_];
      if (block.used + n <= block.size) {
        double* out = block.data.get() + block.used;
        block.used += n;
        return out;
      }
      ++active_;
    }
    const std::size_t size = std::max(n, kMinBlockDoubles);
    blocks_.push_back(Block{std::make_unique<double[]>(size), size, n});
    active_ = blocks_.size() - 1;
    return blocks_.back().data.get();
  }

  /// Invalidates every outstanding span; retains capacity for reuse.
  void reset() {
    for (Block& block : blocks_) block.used = 0;
    active_ = 0;
  }

 private:
  static constexpr std::size_t kMinBlockDoubles = 4096;

  struct Block {
    std::unique_ptr<double[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
};

}  // namespace ccd::contract
