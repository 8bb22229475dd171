// Packet representation.
//
// Mirrors a DPDK mbuf at the level the library needs: a contiguous byte
// buffer holding real Ethernet/IPv4/L4 headers plus payload, a cached parse
// of the flow key, and simulator metadata (ingress timestamp, hop count,
// PCIe crossing count) used by the measurement layer.
//
// The payload may be *pending*: PacketBuilder writes the headers and records
// only the payload seed (defer_payload).  The deterministic fill runs on the
// first call to an accessor that can expose payload bytes — data(), l3(),
// l4(), payload(), const or not — so every observed byte is the same as an
// eager fill.  The header paths (ipv4, five_tuple, rewrite_*) touch only the
// header region and never fill, which is why header-only NFs never pay for
// the payload.  Because a const accessor may write the buffer, a Packet must
// not be read from two threads at once.
//
// The flow key is cached: five_tuple() parses the headers once and keeps the
// result, "no tuple" included, until something may have changed them.
//   - PacketBuilder::build_into seeds the cache with the tuple it wrote
//     (ports 0 for a protocol other than TCP or UDP, as a parse gives), so a
//     generated packet is never parsed for its key at all.
//   - rewrite_ipv4_addrs and rewrite_ports keep the cache equal to a fresh
//     parse (rewrite_ports moves the cached ports only for TCP and UDP).
//   - Every mutable byte accessor — data(), l3(), l4(), payload() — drops
//     it, as do reset and reset_headers; the const accessors do not (the
//     deferred fill writes only from byte 42, past every key byte).
// A header byte written through a mutable span therefore shows up only if
// the span was taken *after* the last five_tuple() call: never write a
// header byte through a span held across a five_tuple() call.  A reader
// that only reads the payload (DPI) takes the const view so it keeps the
// cache.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "packet/five_tuple.hpp"
#include "packet/headers.hpp"

namespace pam {

class PacketPool;

class Packet {
 public:
  /// Minimum Ethernet frame (without FCS) and standard MTU frame bounds used
  /// by the generators; the paper sweeps exactly this range.
  static constexpr std::size_t kMinSize = 64;
  static constexpr std::size_t kMaxSize = 1500;
  /// L2+L3+L4 header region (Ethernet 14 + IPv4 20 + TCP 20): the bytes a
  /// parser may read before any producer wrote them.
  static constexpr std::size_t kHeaderBytes = 54;

  Packet() = default;
  explicit Packet(std::size_t wire_size) { reset(wire_size); }

  Packet(const Packet&) = default;
  Packet& operator=(const Packet&) = default;
  Packet(Packet&&) noexcept = default;
  Packet& operator=(Packet&&) noexcept = default;

  /// Re-initialises for a frame of `wire_size` bytes (fully zero-filled,
  /// no payload pending).
  void reset(std::size_t wire_size);

  /// Fast re-initialisation for recycling: zeroes only the kHeaderBytes
  /// header region (plus any newly grown tail, which vector growth
  /// value-initialises) and clears a pending payload; payload bytes beyond
  /// the headers keep whatever the previous occupant left and MUST be
  /// overwritten by the producer (PacketBuilder defers a fill that covers
  /// the whole payload).  This is what PacketPool::acquire uses — recycling
  /// a 1500B frame no longer memsets the full MTU.  The deferred fill starts
  /// at byte 42 (see payload()), so for TCP it overwrites the last 12 header
  /// bytes the builder wrote.
  void reset_headers(std::size_t wire_size);

  /// Marks the payload as pending: the first accessor that can expose
  /// payload bytes fills them from `seed` (see the file comment).
  void defer_payload(std::uint64_t seed) noexcept {
    payload_seed_ = seed;
    payload_pending_ = true;
  }
  /// True while a deferred payload has not been written yet.
  [[nodiscard]] bool payload_pending() const noexcept { return payload_pending_; }

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] Bytes wire_bytes() const noexcept { return Bytes{data_.size()}; }
  /// Drops the cached flow key (see the file comment).
  [[nodiscard]] std::span<std::uint8_t> data() noexcept {
    tuple_state_ = TupleState::kStale;
    fill_if_pending();
    return data_;
  }
  [[nodiscard]] std::span<const std::uint8_t> data() const noexcept {
    fill_if_pending();
    return data_;
  }

  /// Byte views of the embedded headers (L2 at offset 0, L3 at 14, L4 at 34).
  /// Each extends to the end of the frame, so each fills a pending payload;
  /// the mutable ones drop the cached flow key.
  [[nodiscard]] std::span<std::uint8_t> l3() noexcept;
  [[nodiscard]] std::span<const std::uint8_t> l3() const noexcept;
  [[nodiscard]] std::span<std::uint8_t> l4() noexcept;
  [[nodiscard]] std::span<const std::uint8_t> l4() const noexcept;
  /// Bytes from offset 42 (after a UDP header) for UDP and TCP alike: for
  /// TCP the payload view overlaps the header's last 12 bytes (ack, data
  /// offset, flags, window, checksum, urgent).  The fill overwrites them, so
  /// those TCP fields read differently before and after a deferred fill.  No
  /// code reads them; moving the offset would change every DPI input.
  [[nodiscard]] std::span<std::uint8_t> payload() noexcept;
  [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept;

  /// Parses headers out of the buffer.  Returns nullopt for truncated or
  /// non-IPv4 frames.  Never fills a pending payload.
  [[nodiscard]] std::optional<Ipv4Header> ipv4() const noexcept;
  /// The flow key, parsed on the first call and cached (see the file
  /// comment).
  [[nodiscard]] std::optional<FiveTuple> five_tuple() const noexcept {
    if (tuple_state_ == TupleState::kStale) {
      parse_five_tuple();
    }
    if (tuple_state_ == TupleState::kNone) {
      return std::nullopt;
    }
    return tuple_;
  }

  /// Rewrites the IPv4 src/dst (host order) in place, recomputing the IP
  /// checksum — what the NAT and load balancer do.  Never fills; keeps the
  /// cached flow key current.
  void rewrite_ipv4_addrs(std::uint32_t new_src, std::uint32_t new_dst) noexcept;
  /// Rewrites L4 ports in place (TCP or UDP inferred from the IP header).
  /// Never fills; keeps the cached flow key current.
  void rewrite_ports(std::uint16_t new_src, std::uint16_t new_dst) noexcept;

  // --- simulator metadata ---------------------------------------------------

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void set_id(std::uint64_t id) noexcept { id_ = id; }

  [[nodiscard]] SimTime ingress_time() const noexcept { return ingress_time_; }
  void set_ingress_time(SimTime t) noexcept { ingress_time_ = t; }

  [[nodiscard]] std::uint32_t pcie_crossings() const noexcept { return pcie_crossings_; }
  void note_pcie_crossing() noexcept { ++pcie_crossings_; }

  [[nodiscard]] std::uint32_t hops() const noexcept { return hops_; }
  void note_hop() noexcept { ++hops_; }

 private:
  friend class PacketBuilder;  // seeds the flow-key cache (build_into)

  /// kStale: not parsed since the last change; kNone: parsed, no tuple.
  enum class TupleState : std::uint8_t { kStale, kNone, kValid };

  /// Parses the headers into the flow-key cache.
  void parse_five_tuple() const noexcept;
  void fill_if_pending() const noexcept {
    if (payload_pending_) {
      fill_payload();
    }
  }
  /// Writes the deferred payload and clears the pending flag.
  void fill_payload() const noexcept;

  // Mutable so a const accessor can materialise a deferred payload: the
  // observable bytes are the same either way.
  mutable std::vector<std::uint8_t> data_;
  std::uint64_t id_ = 0;
  SimTime ingress_time_ = SimTime::zero();
  std::uint32_t pcie_crossings_ = 0;
  std::uint32_t hops_ = 0;
  std::uint64_t payload_seed_ = 0;
  // Mutable so the const five_tuple() can fill the cache.
  mutable FiveTuple tuple_{};
  mutable TupleState tuple_state_ = TupleState::kStale;
  mutable bool payload_pending_ = false;
};

/// Owning handle returned by PacketPool; releases back to the pool on
/// destruction (RAII, never leaks even on exceptional paths).
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(Packet* p, PacketPool* pool) noexcept : p_(p), pool_(pool) {}
  ~PacketPtr();

  PacketPtr(const PacketPtr&) = delete;
  PacketPtr& operator=(const PacketPtr&) = delete;
  PacketPtr(PacketPtr&& o) noexcept : p_(o.p_), pool_(o.pool_) {
    o.p_ = nullptr;
    o.pool_ = nullptr;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept;

  [[nodiscard]] Packet* get() const noexcept { return p_; }
  [[nodiscard]] Packet& operator*() const noexcept { return *p_; }
  [[nodiscard]] Packet* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  /// Releases ownership without returning to the pool (used when handing a
  /// packet to a component that manages lifetime manually).
  [[nodiscard]] Packet* release() noexcept {
    Packet* out = p_;
    p_ = nullptr;
    pool_ = nullptr;
    return out;
  }

 private:
  Packet* p_ = nullptr;
  PacketPool* pool_ = nullptr;
};

}  // namespace pam
