// In-memory span recorder for the traced run.  Spans are recorded from the
// benchmark's own code around calls into each layer, kept in memory, and
// written out once when the benchmark ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady clock, relative to the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into the span list; -1 = root
  int run = 0;                ///< spans of one run share this id
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Opens a span under the innermost open one.  Returns its index, or -1.
  int open(std::string name, int run) {
    if (!enabled_) {
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, run});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int run)
      : tracer_(tracer), index_(tracer.open(std::move(name), run)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
