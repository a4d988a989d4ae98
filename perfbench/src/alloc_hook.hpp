// Global operator new hook (alloc_hook.cpp) counting heap allocations while
// armed, the way tests/alloc does. Counts every thread's allocations.
#pragma once

#include <cstddef>

namespace perfbench {

/// Counts allocations made between construction and count().
class AllocCount {
 public:
  AllocCount();
  ~AllocCount();
  AllocCount(const AllocCount&) = delete;
  AllocCount& operator=(const AllocCount&) = delete;
  [[nodiscard]] std::size_t count() const noexcept;
};

}  // namespace perfbench
