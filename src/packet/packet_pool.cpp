#include "packet/packet_pool.hpp"

#include <cassert>

namespace pam {

PacketPool::PacketPool(std::size_t initial_capacity, std::size_t max_capacity)
    : max_capacity_(max_capacity) {
  assert(initial_capacity <= max_capacity);
  all_.reserve(initial_capacity);
  free_.reserve(initial_capacity);
  for (std::size_t i = 0; i < initial_capacity; ++i) {
    all_.push_back(std::make_unique<Packet>());
    free_.push_back(all_.back().get());
  }
}

PacketPool::~PacketPool() {
  // Outstanding PacketPtrs after pool destruction would dangle; in debug
  // builds make that loud.
  assert(in_use() == 0 && "packets still in flight at pool destruction");
}

PacketPtr PacketPool::acquire(std::size_t wire_size) {
  ++allocations_;
  if (free_.empty()) {
    if (all_.size() >= max_capacity_) {
      ++exhaustions_;
      return {};
    }
    all_.push_back(std::make_unique<Packet>());
    // Room for every packet on the freelist, so release() never allocates.
    free_.reserve(all_.capacity());
    free_.push_back(all_.back().get());
  }
  Packet* p = free_.back();
  free_.pop_back();
  // Recycle fast path: only the header region (and any grown tail) is
  // zeroed; producers overwrite the payload (see Packet::reset_headers).
  p->reset_headers(wire_size);
  return PacketPtr{p, this};
}

void PacketPool::release(Packet* p) noexcept {
  assert(p != nullptr);
  free_.push_back(p);
}

}  // namespace pam
