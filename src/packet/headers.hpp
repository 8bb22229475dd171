// Wire-format protocol headers: Ethernet II, IPv4, TCP, UDP.
//
// The NFs in this library do real header work (the firewall classifies, the
// NAT rewrites addresses and fixes checksums), so headers are parsed from and
// written to actual byte buffers in network byte order, exactly as a DPDK
// application would see them.  All multi-byte loads/stores go through
// explicit byte operations — no type punning, no alignment assumptions.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace pam {

// ---------------------------------------------------------------------------
// Byte-order helpers (operate on explicit buffers; safe on any alignment).
// ---------------------------------------------------------------------------

// Inline: every header parse and checksum loop calls them per field.

[[nodiscard]] inline std::uint16_t load_be16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_be16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xff);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  p[2] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  p[3] = static_cast<std::uint8_t>(v & 0xff);
}

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

using MacAddress = std::array<std::uint8_t, 6>;

[[nodiscard]] std::string mac_to_string(const MacAddress& mac);

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;
  static constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
  static constexpr std::uint16_t kEtherTypeArp = 0x0806;

  MacAddress dst{};
  MacAddress src{};
  std::uint16_t ether_type = kEtherTypeIpv4;

  /// Parses from `buf`; returns nullopt when the buffer is too short.
  [[nodiscard]] static std::optional<EthernetHeader> parse(std::span<const std::uint8_t> buf) noexcept;
  /// Writes kSize bytes; requires buf.size() >= kSize.
  void write(std::span<std::uint8_t> buf) const noexcept;
};

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

struct Ipv4Header {
  static constexpr std::size_t kMinSize = 20;

  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;   ///< header + payload, bytes
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  IpProto protocol = IpProto::kUdp;
  std::uint16_t checksum = 0;       ///< as parsed; recomputed on write
  std::uint32_t src = 0;            ///< host byte order
  std::uint32_t dst = 0;            ///< host byte order

  [[nodiscard]] static std::optional<Ipv4Header> parse(std::span<const std::uint8_t> buf) noexcept;

  /// Writes a 20-byte header with a freshly computed checksum.
  void write(std::span<std::uint8_t> buf) const noexcept;

  /// RFC 1071 checksum over an arbitrary buffer.
  [[nodiscard]] static std::uint16_t compute_checksum(std::span<const std::uint8_t> buf) noexcept;

  /// True when the checksum field in `buf` verifies.
  [[nodiscard]] static bool verify_checksum(std::span<const std::uint8_t> header_bytes) noexcept;
};

// ---------------------------------------------------------------------------
// TCP / UDP
// ---------------------------------------------------------------------------

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;
  static constexpr std::uint8_t kFlagFin = 0x01;
  static constexpr std::uint8_t kFlagSyn = 0x02;
  static constexpr std::uint8_t kFlagRst = 0x04;
  static constexpr std::uint8_t kFlagAck = 0x10;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;

  [[nodiscard]] static std::optional<TcpHeader> parse(std::span<const std::uint8_t> buf) noexcept;
  void write(std::span<std::uint8_t> buf) const noexcept;

  [[nodiscard]] bool syn() const noexcept { return (flags & kFlagSyn) != 0; }
  [[nodiscard]] bool fin() const noexcept { return (flags & kFlagFin) != 0; }
  [[nodiscard]] bool rst() const noexcept { return (flags & kFlagRst) != 0; }
  [[nodiscard]] bool ack_set() const noexcept { return (flags & kFlagAck) != 0; }
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  ///< header + payload

  [[nodiscard]] static std::optional<UdpHeader> parse(std::span<const std::uint8_t> buf) noexcept;
  void write(std::span<std::uint8_t> buf) const noexcept;
};

}  // namespace pam
