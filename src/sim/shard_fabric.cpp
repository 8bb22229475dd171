#include "sim/shard_fabric.hpp"

#include <cassert>
#include <utility>

namespace pam {

namespace {
// Pre-sized so the steady state of a busy mailbox never reallocates; a
// frame burst beyond this merely grows the vector once and keeps the larger
// capacity (amortised, not per-packet).
constexpr std::size_t kMailboxReserve = 64;
constexpr std::size_t kArenaReserve = 128;
}  // namespace

ShardFabric::ShardFabric(std::size_t shards)
    : shards_(shards),
      boxes_(shards * shards),
      arenas_(shards),
      frames_from_(shards, 0) {
  assert(shards > 0);
  for (Mailbox& mb : boxes_) {
    mb.frames.reserve(kMailboxReserve);
  }
  for (auto& arena : arenas_) {
    arena.reserve(kArenaReserve);
  }
}

FabricFrame ShardFabric::acquire(std::size_t src) {
  auto& arena = arenas_[src];
  if (arena.empty()) {
    return FabricFrame{};
  }
  FabricFrame frame = std::move(arena.back());
  arena.pop_back();
  return frame;
}

void ShardFabric::send(std::size_t src, std::size_t dst, FabricFrame frame) {
  assert(src != dst);
  Mailbox& mb = box(src, dst);
  frame.seq = mb.next_seq++;
  mb.frames.push_back(std::move(frame));
  ++frames_from_[src];
}

void ShardFabric::release(std::size_t shard, FabricFrame frame) {
  // Reset to a blank frame but keep the byte buffer's capacity — that is
  // the recycled storage the next acquire() hands back out.
  std::vector<std::uint8_t> bytes = std::move(frame.bytes);
  bytes.clear();
  frame = FabricFrame{};
  frame.bytes = std::move(bytes);
  arenas_[shard].push_back(std::move(frame));
}

bool ShardFabric::idle() const noexcept {
  for (const Mailbox& mb : boxes_) {
    if (!mb.frames.empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace pam
