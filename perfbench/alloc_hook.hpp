// Heap-allocation counter for the benchmark binary.
//
// alloc_hook.cpp replaces the global operator new/delete family for
// pam_perfbench only.  Counting is off by default (one relaxed load per
// allocation); an AllocWindow switches it on for its lifetime and reports
// the calls and bytes requested inside it, from every thread.

#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Counts operator new calls (and requested bytes) made while it is alive.
/// Windows must not nest.
class AllocWindow {
 public:
  AllocWindow();
  ~AllocWindow();
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;

  /// Counts so far (the window keeps counting).
  [[nodiscard]] AllocCounts counts() const;

 private:
  AllocCounts start_;
};

}  // namespace perfbench
