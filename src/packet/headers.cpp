#include "packet/headers.hpp"

#include <cassert>
#include <cstdio>

namespace pam {

std::string mac_to_string(const MacAddress& mac) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x",
                mac[0], mac[1], mac[2], mac[3], mac[4], mac[5]);
  return buf;
}

std::optional<EthernetHeader> EthernetHeader::parse(std::span<const std::uint8_t> buf) noexcept {
  if (buf.size() < kSize) {
    return std::nullopt;
  }
  EthernetHeader h;
  std::copy(buf.begin(), buf.begin() + 6, h.dst.begin());
  std::copy(buf.begin() + 6, buf.begin() + 12, h.src.begin());
  h.ether_type = load_be16(buf.data() + 12);
  return h;
}

void EthernetHeader::write(std::span<std::uint8_t> buf) const noexcept {
  assert(buf.size() >= kSize);
  std::copy(dst.begin(), dst.end(), buf.begin());
  std::copy(src.begin(), src.end(), buf.begin() + 6);
  store_be16(buf.data() + 12, ether_type);
}

std::optional<Ipv4Header> Ipv4Header::parse(std::span<const std::uint8_t> buf) noexcept {
  if (buf.size() < kMinSize) {
    return std::nullopt;
  }
  const std::uint8_t version_ihl = buf[0];
  if ((version_ihl >> 4) != 4) {
    return std::nullopt;
  }
  const std::size_t ihl_bytes = static_cast<std::size_t>(version_ihl & 0x0f) * 4;
  if (ihl_bytes < kMinSize || buf.size() < ihl_bytes) {
    return std::nullopt;
  }
  Ipv4Header h;
  h.dscp = static_cast<std::uint8_t>(buf[1] >> 2);
  h.total_length = load_be16(buf.data() + 2);
  h.identification = load_be16(buf.data() + 4);
  h.ttl = buf[8];
  h.protocol = static_cast<IpProto>(buf[9]);
  h.checksum = load_be16(buf.data() + 10);
  h.src = load_be32(buf.data() + 12);
  h.dst = load_be32(buf.data() + 16);
  return h;
}

void Ipv4Header::write(std::span<std::uint8_t> buf) const noexcept {
  assert(buf.size() >= kMinSize);
  buf[0] = 0x45;  // version 4, IHL 5 words
  buf[1] = static_cast<std::uint8_t>(dscp << 2);
  store_be16(buf.data() + 2, total_length);
  store_be16(buf.data() + 4, identification);
  store_be16(buf.data() + 6, 0);  // flags/fragment: DF not modelled
  buf[8] = ttl;
  buf[9] = static_cast<std::uint8_t>(protocol);
  store_be16(buf.data() + 10, 0);  // checksum placeholder
  store_be32(buf.data() + 12, src);
  store_be32(buf.data() + 16, dst);
  const std::uint16_t sum = compute_checksum(buf.first(kMinSize));
  store_be16(buf.data() + 10, sum);
}

std::uint16_t Ipv4Header::compute_checksum(std::span<const std::uint8_t> buf) noexcept {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < buf.size(); i += 2) {
    sum += load_be16(buf.data() + i);
  }
  if (i < buf.size()) {
    sum += static_cast<std::uint32_t>(buf[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

bool Ipv4Header::verify_checksum(std::span<const std::uint8_t> header_bytes) noexcept {
  if (header_bytes.size() < kMinSize) {
    return false;
  }
  // Checksum over a header including its checksum field must yield 0.
  return compute_checksum(header_bytes.first(kMinSize)) == 0;
}

std::optional<TcpHeader> TcpHeader::parse(std::span<const std::uint8_t> buf) noexcept {
  if (buf.size() < kMinSize) {
    return std::nullopt;
  }
  TcpHeader h;
  h.src_port = load_be16(buf.data());
  h.dst_port = load_be16(buf.data() + 2);
  h.seq = load_be32(buf.data() + 4);
  h.ack = load_be32(buf.data() + 8);
  h.flags = buf[13];
  h.window = load_be16(buf.data() + 14);
  return h;
}

void TcpHeader::write(std::span<std::uint8_t> buf) const noexcept {
  assert(buf.size() >= kMinSize);
  store_be16(buf.data(), src_port);
  store_be16(buf.data() + 2, dst_port);
  store_be32(buf.data() + 4, seq);
  store_be32(buf.data() + 8, ack);
  buf[12] = 0x50;  // data offset 5 words
  buf[13] = flags;
  store_be16(buf.data() + 14, window);
  store_be16(buf.data() + 16, 0);  // checksum: not modelled for TCP payloads
  store_be16(buf.data() + 18, 0);  // urgent pointer
}

std::optional<UdpHeader> UdpHeader::parse(std::span<const std::uint8_t> buf) noexcept {
  if (buf.size() < kSize) {
    return std::nullopt;
  }
  UdpHeader h;
  h.src_port = load_be16(buf.data());
  h.dst_port = load_be16(buf.data() + 2);
  h.length = load_be16(buf.data() + 4);
  return h;
}

void UdpHeader::write(std::span<std::uint8_t> buf) const noexcept {
  assert(buf.size() >= kSize);
  store_be16(buf.data(), src_port);
  store_be16(buf.data() + 2, dst_port);
  store_be16(buf.data() + 4, length);
  store_be16(buf.data() + 6, 0);  // checksum optional for IPv4 UDP
}

}  // namespace pam
