#include "packet/packet.hpp"

#include <algorithm>
#include <cassert>

#include "packet/packet_pool.hpp"

namespace pam {

namespace {
constexpr std::size_t kL3Offset = EthernetHeader::kSize;           // 14
constexpr std::size_t kL4Offset = kL3Offset + Ipv4Header::kMinSize;  // 34
constexpr std::size_t kPayloadOffset = kL4Offset + UdpHeader::kSize;  // 42

/// The bytes of `buf` from `offset` on, or empty when the frame is shorter.
template <typename Byte>
std::span<Byte> tail_from(std::span<Byte> buf, std::size_t offset) noexcept {
  return buf.size() > offset ? buf.subspan(offset) : std::span<Byte>{};
}
}  // namespace

void Packet::reset(std::size_t wire_size) {
  assert(wire_size >= kMinSize && wire_size <= 9216 && "unreasonable frame size");
  data_.assign(wire_size, 0);
  id_ = 0;
  ingress_time_ = SimTime::zero();
  pcie_crossings_ = 0;
  hops_ = 0;
  tuple_state_ = TupleState::kStale;
  payload_pending_ = false;
}

void Packet::reset_headers(std::size_t wire_size) {
  assert(wire_size >= kMinSize && wire_size <= 9216 && "unreasonable frame size");
  // resize() value-initialises (zeroes) only the grown tail; shrinking and
  // re-growing within capacity never touches the retained payload bytes.
  data_.resize(wire_size);
  std::fill_n(data_.begin(),
              std::min<std::size_t>(kHeaderBytes, wire_size), std::uint8_t{0});
  id_ = 0;
  ingress_time_ = SimTime::zero();
  pcie_crossings_ = 0;
  hops_ = 0;
  tuple_state_ = TupleState::kStale;
  payload_pending_ = false;
}

void Packet::fill_payload() const noexcept {
  payload_pending_ = false;
  // Deterministic pseudo-random fill so DPI scans non-trivial content.
  std::uint64_t state = payload_seed_ ^ 0x6a09e667f3bcc909ull;
  for (auto& byte : tail_from(std::span<std::uint8_t>{data_}, kPayloadOffset)) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    byte = static_cast<std::uint8_t>(state & 0xff);
  }
}

std::span<std::uint8_t> Packet::l3() noexcept {
  return tail_from(data(), kL3Offset);
}

std::span<const std::uint8_t> Packet::l3() const noexcept {
  return tail_from(data(), kL3Offset);
}

std::span<std::uint8_t> Packet::l4() noexcept {
  return tail_from(data(), kL4Offset);
}

std::span<const std::uint8_t> Packet::l4() const noexcept {
  return tail_from(data(), kL4Offset);
}

std::span<std::uint8_t> Packet::payload() noexcept {
  return tail_from(data(), kPayloadOffset);
}

std::span<const std::uint8_t> Packet::payload() const noexcept {
  return tail_from(data(), kPayloadOffset);
}

// The header paths below read and write data_ directly, never filling.
// Their results use only bytes [0, 38) — Ethernet, IPv4 and the L4 ports —
// and the deferred fill starts at byte 42, so a pending payload cannot
// change them.

std::optional<Ipv4Header> Packet::ipv4() const noexcept {
  // The ether_type is read in place: parsing the whole Ethernet header
  // would copy both MACs for nothing.
  if (data_.size() < EthernetHeader::kSize ||
      load_be16(data_.data() + 12) != EthernetHeader::kEtherTypeIpv4) {
    return std::nullopt;
  }
  return Ipv4Header::parse(tail_from(std::span<const std::uint8_t>{data_}, kL3Offset));
}

void Packet::parse_five_tuple() const noexcept {
  tuple_state_ = TupleState::kNone;
  const auto ip = ipv4();
  if (!ip) {
    return;
  }
  FiveTuple t;
  t.src_ip = ip->src;
  t.dst_ip = ip->dst;
  t.proto = ip->protocol;
  const auto l4_bytes = tail_from(std::span<const std::uint8_t>{data_}, kL4Offset);
  if (ip->protocol == IpProto::kTcp) {
    const auto tcp = TcpHeader::parse(l4_bytes);
    if (!tcp) {
      return;
    }
    t.src_port = tcp->src_port;
    t.dst_port = tcp->dst_port;
  } else if (ip->protocol == IpProto::kUdp) {
    const auto udp = UdpHeader::parse(l4_bytes);
    if (!udp) {
      return;
    }
    t.src_port = udp->src_port;
    t.dst_port = udp->dst_port;
  }
  tuple_ = t;
  tuple_state_ = TupleState::kValid;
}

void Packet::rewrite_ipv4_addrs(std::uint32_t new_src, std::uint32_t new_dst) noexcept {
  auto ip = ipv4();
  if (!ip) {
    return;
  }
  ip->src = new_src;
  ip->dst = new_dst;
  ip->write(tail_from(std::span<std::uint8_t>{data_}, kL3Offset));
  // A stale or "no tuple" cache stays as it is: a parse would give the same.
  if (tuple_state_ == TupleState::kValid) {
    tuple_.src_ip = new_src;
    tuple_.dst_ip = new_dst;
  }
}

void Packet::rewrite_ports(std::uint16_t new_src, std::uint16_t new_dst) noexcept {
  const auto ip = ipv4();
  if (!ip) {
    return;
  }
  auto l4_bytes = tail_from(std::span<std::uint8_t>{data_}, kL4Offset);
  if (l4_bytes.size() < 4) {
    return;
  }
  // src/dst port live at identical offsets for TCP and UDP.
  store_be16(l4_bytes.data(), new_src);
  store_be16(l4_bytes.data() + 2, new_dst);
  // Other protocols keep port 0 in the key, whatever the bytes say.
  if (tuple_state_ == TupleState::kValid &&
      (ip->protocol == IpProto::kTcp || ip->protocol == IpProto::kUdp)) {
    tuple_.src_port = new_src;
    tuple_.dst_port = new_dst;
  }
}

PacketPtr::~PacketPtr() {
  if (p_ != nullptr && pool_ != nullptr) {
    pool_->release(p_);
  } else {
    delete p_;
  }
}

PacketPtr& PacketPtr::operator=(PacketPtr&& o) noexcept {
  if (this != &o) {
    if (p_ != nullptr && pool_ != nullptr) {
      pool_->release(p_);
    } else {
      delete p_;
    }
    p_ = o.p_;
    pool_ = o.pool_;
    o.p_ = nullptr;
    o.pool_ = nullptr;
  }
  return *this;
}

}  // namespace pam
