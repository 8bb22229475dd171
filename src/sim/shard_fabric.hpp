// Cross-rack frame exchange for the sharded datacenter kernel.
//
// When a chain node is leased to another rack (a cross_rack_move), packets
// reaching it travel as FabricFrames: a pointer to the Packet itself plus
// the routing the crossing needs.  The packet is never copied; it stays
// owned by its home rack's PacketPool, whose packets never move, and only
// one shard touches it while it is in flight.  Frames are buffered into
// the per-(src,dst) mailbox of the sending shard and drained only at epoch
// barriers, in deterministic (dst, sent_at, src, seq) order, which is what
// makes the parallel run bit-identical to the single-threaded one.  A
// mailbox is a lane already sorted by send time, so the drain is a k-way
// merge of each destination's lanes, and a destination's arrival times
// never go back: it can take them on its EventQueue's arrival line.
//
// Ownership protocol (this is what keeps the exchange lock-free and
// TSan-clean): between two barriers, mailbox row `src` is written only by
// shard `src`'s thread; nobody reads it.  At the barrier every shard thread
// is parked, and the main thread alone moves frames out.  The barrier's
// mutex and condition variable (EpochExecutor) order the sender's last
// write to a packet before the receiver's first read of it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace pam {

class Packet;

/// One packet on the rack-to-rack fabric: the packet and its routing.
/// Visit frames travel home -> host; return frames travel host -> home
/// carrying the visit's outcome.  A packet dropped on the host goes home
/// too, so that its home pool takes it back.
struct FabricFrame {
  enum class Kind : std::uint8_t { kVisit = 0, kReturn = 1 };
  enum class Outcome : std::uint8_t {
    kPassed = 0,
    kDroppedNic,   ///< drop-tail at the host SmartNIC
    kDroppedNf,    ///< policy drop by the leased NF
  };

  Kind kind = Kind::kVisit;
  Outcome outcome = Outcome::kPassed;
  std::size_t chain = 0;  ///< global chain id
  std::size_t node = 0;   ///< index of the leased node within the chain
  std::uint64_t seq = 0;  ///< per-mailbox sequence; stamps the drain order
  SimTime sent_at;        ///< send time on the source shard's clock
  Packet* packet = nullptr;  ///< owned by the home rack's pool throughout

  // Used only by perfbench's frame replay (and the fabric's unit tests),
  // which still times a byte copy the simulator no longer makes.
  std::vector<std::uint8_t> bytes;
  std::uint64_t packet_id = 0;
};

class ShardFabric {
 public:
  explicit ShardFabric(std::size_t shards);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  /// Pops a recycled frame from `src`'s arena, or returns a blank one when
  /// the arena is empty; a recycled frame's `bytes` keep their capacity.
  /// Callable only from the shard's own thread mid-epoch.
  [[nodiscard]] FabricFrame acquire(std::size_t src);

  /// Buffers `frame` into mailbox (src, dst), stamping its sequence number.
  /// A lane's `sent_at` must never go back.  Callable only from shard
  /// `src`'s thread mid-epoch.
  void send(std::size_t src, std::size_t dst, FabricFrame frame);

  /// Returns a consumed frame's storage to `shard`'s arena.  Callable only
  /// from the shard's own thread (or at a barrier).
  void release(std::size_t shard, FabricFrame frame);

  /// Drains every mailbox in (dst, sent_at, src, seq) order, invoking
  /// `deliver(src, dst, frame)` for each frame: destination by
  /// destination, a merge of its (src -> dst) lanes by `sent_at`, equal
  /// times going to the lower src.  Mailbox vectors are cleared but keep
  /// their capacity, and the merge allocates nothing.  Barrier-only: every
  /// shard thread must be parked.
  template <typename Deliver>
  void exchange(Deliver&& deliver) {
    for (std::size_t dst = 0; dst < shards_; ++dst) {
      lanes_.clear();  // capacity reserved for every src
      for (std::size_t src = 0; src < shards_; ++src) {
        if (!box(src, dst).frames.empty()) {
          lanes_.push_back(Lane{src, 0});
        }
      }
      while (!lanes_.empty()) {
        // lanes_ stays in src order, so the strict < keeps ties on the
        // lower src.
        std::size_t pick = 0;
        for (std::size_t i = 1; i < lanes_.size(); ++i) {
          if (head(lanes_[i], dst).sent_at < head(lanes_[pick], dst).sent_at) {
            pick = i;
          }
        }
        Lane& lane = lanes_[pick];
        Mailbox& mb = box(lane.src, dst);
        ++frames_exchanged_;
        deliver(lane.src, dst, std::move(mb.frames[lane.next]));
        if (++lane.next == mb.frames.size()) {
          mb.frames.clear();  // capacity retained
          lanes_.erase(lanes_.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t frames_exchanged() const noexcept {
    return frames_exchanged_;
  }
  /// Frames sent by shard `src` over the whole run (per-shard report field).
  [[nodiscard]] std::uint64_t frames_from(std::size_t src) const {
    return frames_from_[src];
  }

 private:
  struct Mailbox {
    std::vector<FabricFrame> frames;
    std::uint64_t next_seq = 0;
  };

  /// A (src -> dst) mailbox being merged: its next frame is frames[next].
  struct Lane {
    std::size_t src = 0;
    std::size_t next = 0;
  };

  [[nodiscard]] Mailbox& box(std::size_t src, std::size_t dst) {
    return boxes_[src * shards_ + dst];
  }
  [[nodiscard]] const FabricFrame& head(const Lane& lane, std::size_t dst) {
    return box(lane.src, dst).frames[lane.next];
  }

  std::size_t shards_;
  std::vector<Mailbox> boxes_;                   ///< src-major (src, dst) grid
  std::vector<std::vector<FabricFrame>> arenas_; ///< per-shard recycle stacks
  std::vector<Lane> lanes_;  ///< exchange's merge cursors, one per busy src
  std::vector<std::uint64_t> frames_from_;
  std::uint64_t frames_exchanged_ = 0;
};

}  // namespace pam
