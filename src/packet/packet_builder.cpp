#include "packet/packet_builder.hpp"

#include <algorithm>
#include <cassert>

namespace pam {

void PacketBuilder::build_into(Packet& pkt) const {
  assert(wire_size_ >= Packet::kMinSize);
  // Header-only reset: every byte below is written explicitly (headers) or
  // by the deferred payload fill, which always covers [42, size) since
  // size >= kMinSize; zeroed headers cover non-TCP/UDP protocols too.
  pkt.reset_headers(wire_size_);
  auto buf = pkt.data();

  EthernetHeader eth;
  eth.src = src_mac_;
  eth.dst = dst_mac_;
  eth.ether_type = EthernetHeader::kEtherTypeIpv4;
  eth.write(buf);

  Ipv4Header ip;
  ip.src = tuple_.src_ip;
  ip.dst = tuple_.dst_ip;
  ip.protocol = tuple_.proto;
  ip.ttl = ttl_;
  ip.dscp = dscp_;
  ip.total_length = static_cast<std::uint16_t>(wire_size_ - EthernetHeader::kSize);

  const auto l3 = pkt.l3();
  const auto l4 = pkt.l4();
  if (tuple_.proto == IpProto::kTcp) {
    TcpHeader tcp;
    tcp.src_port = tuple_.src_port;
    tcp.dst_port = tuple_.dst_port;
    tcp.flags = tcp_flags_;
    tcp.seq = static_cast<std::uint32_t>(payload_seed_);
    if (l4.size() >= TcpHeader::kMinSize) {
      tcp.write(l4);
    }
  } else if (tuple_.proto == IpProto::kUdp) {
    UdpHeader udp;
    udp.src_port = tuple_.src_port;
    udp.dst_port = tuple_.dst_port;
    udp.length = static_cast<std::uint16_t>(
        wire_size_ - EthernetHeader::kSize - Ipv4Header::kMinSize);
    if (l4.size() >= UdpHeader::kSize) {
      udp.write(l4);
    }
  }
  // IP header written last: total_length already set, checksum covers finals.
  ip.write(l3);

  // The payload is written on first read (Packet::defer_payload).
  pkt.defer_payload(payload_seed_);
  if (!payload_text_.empty()) {
    auto payload = pkt.payload();  // fills, then the text goes on top
    const std::size_t n = std::min(payload_text_.size(), payload.size());
    std::copy_n(payload_text_.data(), n, reinterpret_cast<char*>(payload.data()));
  }
  // Seed the flow-key cache with what a parse of the bytes above gives (the
  // mutable accessors dropped it): ports only for TCP and UDP.
  pkt.tuple_ = tuple_;
  if (tuple_.proto != IpProto::kTcp && tuple_.proto != IpProto::kUdp) {
    pkt.tuple_.src_port = 0;
    pkt.tuple_.dst_port = 0;
  }
  pkt.tuple_state_ = Packet::TupleState::kValid;
}

}  // namespace pam
