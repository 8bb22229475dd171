// Ring buffers.
//
// RingBuffer: a bounded ring of a set capacity, used for the Logger NF's
// record ring.  Storage comes on the first push, reserved once at full
// capacity and filled by push_back, so building one costs nothing.
// Overwrites the oldest element when full (the behaviour a packet logger
// wants) unless the caller uses try_push.
//
// FifoRing: a FIFO queue on a power-of-two ring that grows on demand and
// never shrinks, used for FcfsServer's waiting jobs and EventQueue's delay
// lines.  Once a queue has
// reached its high-water mark, push and pop never allocate.
//
// BlockFifo: a FIFO queue in fixed-size blocks that keeps emptied blocks
// for reuse, used for the traffic source's ingress window (up to 65,536
// entries).  It never allocates at its high-water mark either, and it
// grows a block at a time: no doubling copy and no single large
// allocation, whose release would make glibc raise its mmap threshold
// and keep later buffers on the heap.

#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace pam {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  /// Push, overwriting the oldest element when full.  Returns true when an
  /// element was overwritten.
  bool push_overwrite(T value) {
    const bool overwrote = full();
    if (head_ == buf_.size()) {
      // A slot never written, so still in the fill phase (head_ is always
      // below capacity_).  Reserve the whole ring at once: no doubling.
      if (buf_.size() == buf_.capacity()) {
        buf_.reserve(capacity_);
      }
      buf_.push_back(std::move(value));
    } else {
      buf_[head_] = std::move(value);
    }
    head_ = next(head_);
    if (overwrote) {
      tail_ = next(tail_);
    } else {
      ++size_;
    }
    return overwrote;
  }

  /// Push only when space is available.
  [[nodiscard]] bool try_push(T value) {
    if (full()) {
      return false;
    }
    push_overwrite(std::move(value));
    return true;
  }

  [[nodiscard]] std::optional<T> pop() {
    if (empty()) {
      return std::nullopt;
    }
    T out = std::move(buf_[tail_]);
    tail_ = next(tail_);
    --size_;
    return out;
  }

  /// Oldest-first access without consuming, index 0 == oldest.
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return buf_[(tail_ + i) % capacity_];
  }

  void clear() noexcept {
    head_ = tail_ = size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return i + 1 == capacity_ ? 0 : i + 1;
  }

  std::size_t capacity_;
  std::vector<T> buf_;    // the slots written so far, up to capacity_
  std::size_t head_ = 0;  // next write position
  std::size_t tail_ = 0;  // oldest element
  std::size_t size_ = 0;
};

template <typename T>
class FifoRing {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots allocated so far: 0 or a power of two.  Callers bound their own
  /// length (FcfsServer's drop-tail), so a queue never holding more than
  /// n elements never allocates more than bit_ceil(n) slots.
  [[nodiscard]] std::size_t slots() const noexcept { return buf_.size(); }

  /// Oldest element.
  [[nodiscard]] const T& front() const noexcept {
    assert(size_ > 0);
    return buf_[head_];
  }

  /// Element i, oldest first.
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(const T& value) {
    if (size_ == buf_.size()) {
      grow();
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() noexcept {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kInitialSlots = 8;

  /// Doubles the ring, unwrapping the elements to start at slot 0.
  void grow() {
    std::vector<T> bigger(buf_.empty() ? kInitialSlots : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;  // oldest element
  std::size_t size_ = 0;
};

template <typename T, std::size_t kBlock>
class BlockFifo {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Blocks allocated so far: the high-water mark in blocks, plus one at
  /// most.
  [[nodiscard]] std::size_t blocks() const noexcept { return owned_.size(); }

  /// Oldest element.
  [[nodiscard]] const T& front() const noexcept {
    assert(size_ > 0);
    return blocks_.front()[head_];
  }

  void push_back(const T& value) {
    const std::size_t pos = head_ + size_;  // counted from the first block
    if (pos == blocks_.size() * kBlock) {
      if (spare_.empty()) {
        owned_.push_back(std::make_unique<T[]>(kBlock));
        spare_.push_back(owned_.back().get());
      }
      blocks_.push_back(spare_.back());
      spare_.pop_back();
    }
    blocks_[pos / kBlock][pos % kBlock] = value;
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    --size_;
    if (++head_ == kBlock) {
      spare_.push_back(blocks_.front());
      blocks_.pop_front();
      head_ = 0;
    }
  }

 private:
  FifoRing<T*> blocks_;                      ///< blocks in use, oldest first
  std::vector<T*> spare_;                    ///< emptied blocks kept for reuse
  std::vector<std::unique_ptr<T[]>> owned_;  ///< every block allocated
  std::size_t head_ = 0;  ///< oldest element's slot in blocks_.front()
  std::size_t size_ = 0;
};

}  // namespace pam
