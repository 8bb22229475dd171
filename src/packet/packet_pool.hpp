// Freelist packet pool, analogous to a DPDK mempool: packets are recycled
// rather than heap-allocated per arrival, which keeps long simulator runs
// allocation-free in steady state and makes leaks (packets never returned)
// observable via in_use().  A pool may start empty: it then grows one
// packet per acquire that finds the freelist empty, up to the run's
// in-flight high-water mark, and never shrinks.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "packet/packet.hpp"

namespace pam {

class PacketPool {
 public:
  /// `initial_capacity` packets are pre-allocated (0 is valid); the pool
  /// grows on demand (hard cap at `max_capacity` — acquire beyond it reports
  /// exhaustion, mimicking mempool depletion).
  explicit PacketPool(std::size_t initial_capacity = 1024,
                      std::size_t max_capacity = 1 << 20);
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Acquire a packet sized to `wire_size` with a zeroed header region
  /// (Packet::reset_headers — payload bytes of a recycled packet are the
  /// producer's to overwrite).  Returns an empty PacketPtr on pool
  /// exhaustion.
  [[nodiscard]] PacketPtr acquire(std::size_t wire_size);

  /// Return a packet to the freelist.  Called by PacketPtr's destructor.
  /// Never allocates: the freelist always has room for every packet.
  void release(Packet* p) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return all_.size(); }
  [[nodiscard]] std::size_t in_use() const noexcept { return all_.size() - free_.size(); }
  [[nodiscard]] std::size_t allocations() const noexcept { return allocations_; }
  [[nodiscard]] std::size_t exhaustions() const noexcept { return exhaustions_; }

 private:
  std::size_t max_capacity_;
  std::vector<std::unique_ptr<Packet>> all_;
  std::vector<Packet*> free_;
  std::size_t allocations_ = 0;
  std::size_t exhaustions_ = 0;
};

}  // namespace pam
