#include "sim/shard_fabric.hpp"

#include <cassert>
#include <utility>

namespace pam {

// Mailboxes and arenas start empty: with R racks there are R x R
// mailboxes, and most (src, dst) pairs never carry a frame.  A mailbox's
// vector grows on its first sends and keeps its capacity across exchanges
// (exchange() clears without shrinking), so a busy lane stops allocating
// once it has held its largest per-epoch burst.  The merge cursors are
// the one reservation: a slot per source, so exchange() never allocates.
ShardFabric::ShardFabric(std::size_t shards)
    : shards_(shards),
      boxes_(shards * shards),
      arenas_(shards),
      frames_from_(shards, 0) {
  assert(shards > 0);
  lanes_.reserve(shards);
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
  assert(mb.frames.empty() || mb.frames.back().sent_at <= frame.sent_at);
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

}  // namespace pam
