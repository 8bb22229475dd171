// Fluent construction of well-formed frames, used by the traffic generator
// and by tests.  Produces a frame whose Ethernet/IPv4/L4 headers are valid
// wire bytes (checksummed) and whose payload is filled deterministically so
// the DPI NF has something to scan.  The fill is deferred until something
// reads the payload (Packet::defer_payload).

#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "packet/five_tuple.hpp"
#include "packet/packet.hpp"

namespace pam {

class PacketBuilder {
 public:
  PacketBuilder& size(std::size_t wire_size) noexcept {
    wire_size_ = wire_size;
    return *this;
  }
  PacketBuilder& flow(const FiveTuple& t) noexcept {
    tuple_ = t;
    return *this;
  }
  PacketBuilder& ttl(std::uint8_t v) noexcept { ttl_ = v; return *this; }
  PacketBuilder& dscp(std::uint8_t v) noexcept { dscp_ = v; return *this; }
  PacketBuilder& tcp_flags(std::uint8_t flags) noexcept { tcp_flags_ = flags; return *this; }
  PacketBuilder& payload_seed(std::uint64_t seed) noexcept { payload_seed_ = seed; return *this; }
  /// Plants `text` at the start of the payload (for DPI signature tests).
  PacketBuilder& payload_text(std::string_view text) noexcept { payload_text_ = text; return *this; }

  /// Writes the headers into `pkt` (resizing it to the configured wire size)
  /// and leaves its payload pending.  The packet is valid: parseable
  /// headers, correct IP checksum.
  void build_into(Packet& pkt) const;

 private:
  std::size_t wire_size_ = Packet::kMinSize;
  FiveTuple tuple_{};
  MacAddress src_mac_{0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  MacAddress dst_mac_{0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
  std::uint8_t ttl_ = 64;
  std::uint8_t dscp_ = 0;
  std::uint8_t tcp_flags_ = TcpHeader::kFlagAck;
  std::uint64_t payload_seed_ = 0;
  std::string_view payload_text_{};
};

}  // namespace pam
