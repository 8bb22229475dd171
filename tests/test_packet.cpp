// Packet, PacketPool and PacketBuilder tests: the builder must produce
// frames whose headers parse back exactly, its deferred payload must read
// back byte-identical to an eager fill, and the pool must recycle without
// leaking.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "nf/dpi.hpp"
#include "nf/nf_factory.hpp"
#include "packet/packet_builder.hpp"
#include "packet/packet_pool.hpp"

namespace pam {
namespace {

FiveTuple sample_tuple(IpProto proto = IpProto::kUdp) {
  FiveTuple t;
  t.src_ip = 0x0a000001;  // 10.0.0.1
  t.dst_ip = 0xc0000202;  // 192.0.2.2
  t.src_port = 40000;
  t.dst_port = 443;
  t.proto = proto;
  return t;
}

/// The frame PacketBuilder produced when it filled the payload eagerly:
/// its header writes for the default builder options, then its fill loop,
/// verbatim.  The deferred fill must read back exactly these bytes.
std::vector<std::uint8_t> eager_reference(std::size_t wire_size,
                                          const FiveTuple& tuple,
                                          std::uint64_t payload_seed) {
  std::vector<std::uint8_t> frame(wire_size, 0);
  const std::span<std::uint8_t> buf{frame};
  EthernetHeader eth;
  eth.src = MacAddress{0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  eth.dst = MacAddress{0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
  eth.write(buf);
  Ipv4Header ip;
  ip.src = tuple.src_ip;
  ip.dst = tuple.dst_ip;
  ip.protocol = tuple.proto;
  ip.total_length = static_cast<std::uint16_t>(wire_size - EthernetHeader::kSize);
  const auto l4 = buf.subspan(34);
  if (tuple.proto == IpProto::kTcp) {
    TcpHeader tcp;
    tcp.src_port = tuple.src_port;
    tcp.dst_port = tuple.dst_port;
    tcp.flags = TcpHeader::kFlagAck;
    tcp.seq = static_cast<std::uint32_t>(payload_seed);
    tcp.write(l4);
  } else {
    UdpHeader udp;
    udp.src_port = tuple.src_port;
    udp.dst_port = tuple.dst_port;
    udp.length = static_cast<std::uint16_t>(wire_size - 34);
    udp.write(l4);
  }
  ip.write(buf.subspan(14));

  auto payload = buf.subspan(42);
  std::uint64_t state = payload_seed ^ 0x6a09e667f3bcc909ull;
  for (auto& byte : payload) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    byte = static_cast<std::uint8_t>(state & 0xff);
  }
  return frame;
}

bool same_bytes(std::span<const std::uint8_t> got,
                std::span<const std::uint8_t> want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end());
}

TEST(Packet, ResetInitialises) {
  Packet p{128};
  EXPECT_EQ(p.size(), 128u);
  EXPECT_EQ(p.wire_bytes().value(), 128u);
  EXPECT_EQ(p.pcie_crossings(), 0u);
  EXPECT_EQ(p.hops(), 0u);
  p.note_pcie_crossing();
  p.note_hop();
  p.reset(256);
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.pcie_crossings(), 0u);
  EXPECT_EQ(p.hops(), 0u);
}

TEST(Packet, ResetHeadersZeroesHeaderRegionAndGrownTail) {
  Packet p{512};
  std::fill(p.data().begin(), p.data().end(), std::uint8_t{0xab});
  p.set_id(7);
  p.note_pcie_crossing();
  p.note_hop();

  p.reset_headers(512);
  for (std::size_t i = 0; i < Packet::kHeaderBytes; ++i) {
    EXPECT_EQ(p.data()[i], 0u) << "header byte " << i;
  }
  // Payload bytes beyond the headers are intentionally left to the producer.
  EXPECT_EQ(p.data()[Packet::kHeaderBytes], 0xabu);
  EXPECT_EQ(p.id(), 0u);
  EXPECT_EQ(p.pcie_crossings(), 0u);
  EXPECT_EQ(p.hops(), 0u);

  // Shrink, dirty, then grow: the regrown tail must be value-initialised.
  p.reset_headers(64);
  std::fill(p.data().begin(), p.data().end(), std::uint8_t{0xcd});
  p.reset_headers(256);
  EXPECT_EQ(p.size(), 256u);
  for (std::size_t i = 64; i < 256; ++i) {
    EXPECT_EQ(p.data()[i], 0u) << "grown byte " << i;
  }
}

TEST(PacketPool, RecycledAcquireHasCleanHeadersAndMetadata) {
  PacketPool pool{1};
  {
    auto p = pool.acquire(512);
    ASSERT_TRUE(p);
    std::fill(p->data().begin(), p->data().end(), std::uint8_t{0xee});
    p->set_id(42);
    p->note_pcie_crossing();
  }
  auto p = pool.acquire(1500);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->size(), 1500u);
  EXPECT_EQ(p->id(), 0u);
  EXPECT_EQ(p->pcie_crossings(), 0u);
  for (std::size_t i = 0; i < Packet::kHeaderBytes; ++i) {
    EXPECT_EQ(p->data()[i], 0u) << "header byte " << i;
  }
  // The tail grown beyond the recycled 512B frame is zero too.
  for (std::size_t i = 512; i < 1500; ++i) {
    EXPECT_EQ(p->data()[i], 0u) << "grown byte " << i;
  }
  // No parse ghosts from the previous occupant: all-zero headers are not a
  // valid IPv4 frame.
  EXPECT_FALSE(p->ipv4().has_value());
}

TEST(PacketBuilder, BuildOverwritesRecycledPayloadDeterministically) {
  PacketBuilder builder;
  builder.size(256).flow(sample_tuple()).payload_seed(77);

  Packet fresh;
  builder.build_into(fresh);

  Packet dirty;
  dirty.reset(256);
  std::fill(dirty.data().begin(), dirty.data().end(), std::uint8_t{0x5a});
  builder.build_into(dirty);

  ASSERT_EQ(fresh.size(), dirty.size());
  EXPECT_TRUE(std::equal(fresh.data().begin(), fresh.data().end(),
                         dirty.data().begin()))
      << "a rebuilt recycled frame must be byte-identical to a fresh build";
}

TEST(Packet, MetadataAccessors) {
  Packet p{64};
  p.set_id(99);
  p.set_ingress_time(SimTime::microseconds(5));
  p.note_pcie_crossing();
  p.note_pcie_crossing();
  EXPECT_EQ(p.id(), 99u);
  EXPECT_EQ(p.ingress_time().us(), 5.0);
  EXPECT_EQ(p.pcie_crossings(), 2u);
}

TEST(Packet, HeaderViewOffsets) {
  Packet p{128};
  EXPECT_EQ(p.l3().size(), 128u - 14u);
  EXPECT_EQ(p.l4().size(), 128u - 34u);
  EXPECT_EQ(p.payload().size(), 128u - 42u);
}

TEST(PacketBuilder, BuildsParseableUdpFrame) {
  Packet p;
  PacketBuilder{}.size(256).flow(sample_tuple(IpProto::kUdp)).build_into(p);
  const auto ip = p.ipv4();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, IpProto::kUdp);
  EXPECT_EQ(ip->total_length, 256u - 14u);
  EXPECT_TRUE(Ipv4Header::verify_checksum(p.l3()));
  const auto tuple = p.five_tuple();
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(*tuple, sample_tuple(IpProto::kUdp));
}

TEST(PacketBuilder, BuildsParseableTcpFrame) {
  Packet p;
  PacketBuilder{}
      .size(128)
      .flow(sample_tuple(IpProto::kTcp))
      .tcp_flags(TcpHeader::kFlagSyn)
      .build_into(p);
  const auto tuple = p.five_tuple();
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->proto, IpProto::kTcp);
  const auto tcp = TcpHeader::parse(p.l4());
  ASSERT_TRUE(tcp.has_value());
  EXPECT_TRUE(tcp->syn());
}

TEST(PacketBuilder, PayloadTextPlanted) {
  Packet p;
  PacketBuilder{}
      .size(256)
      .flow(sample_tuple())
      .payload_seed(3)
      .payload_text("NEEDLE")
      .build_into(p);
  EXPECT_FALSE(p.payload_pending());  // planting the text forced the fill
  const auto payload = p.payload();
  const std::string head(reinterpret_cast<const char*>(payload.data()), 6);
  EXPECT_EQ(head, "NEEDLE");
  // The rest of the payload is the seed's stream, as with no text.
  const auto want = eager_reference(256, sample_tuple(), 3);
  EXPECT_TRUE(same_bytes(payload.subspan(6), std::span{want}.subspan(42 + 6)));
}

TEST(PacketBuilder, PayloadDeterministicPerSeed) {
  Packet a;
  Packet b;
  PacketBuilder{}.size(512).flow(sample_tuple()).payload_seed(7).build_into(a);
  PacketBuilder{}.size(512).flow(sample_tuple()).payload_seed(7).build_into(b);
  EXPECT_TRUE(std::equal(a.data().begin(), a.data().end(), b.data().begin()));
  Packet c;
  PacketBuilder{}.size(512).flow(sample_tuple()).payload_seed(8).build_into(c);
  EXPECT_FALSE(std::equal(a.data().begin(), a.data().end(), c.data().begin()));
}

TEST(Packet, RewriteAddrsUpdatesChecksum) {
  Packet p;
  PacketBuilder{}.size(128).flow(sample_tuple()).build_into(p);
  p.rewrite_ipv4_addrs(0x01010101, 0x02020202);
  const auto ip = p.ipv4();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->src, 0x01010101u);
  EXPECT_EQ(ip->dst, 0x02020202u);
  EXPECT_TRUE(Ipv4Header::verify_checksum(p.l3()));
}

TEST(Packet, RewritePortsBothProtocols) {
  for (const auto proto : {IpProto::kUdp, IpProto::kTcp}) {
    Packet p;
    PacketBuilder{}.size(128).flow(sample_tuple(proto)).build_into(p);
    p.rewrite_ports(1111, 2222);
    const auto tuple = p.five_tuple();
    ASSERT_TRUE(tuple.has_value());
    EXPECT_EQ(tuple->src_port, 1111);
    EXPECT_EQ(tuple->dst_port, 2222);
  }
}

TEST(Packet, NonIpv4FrameHasNoTuple) {
  Packet p{64};  // all zeros: ether_type 0 -> not IPv4
  EXPECT_FALSE(p.ipv4().has_value());
  EXPECT_FALSE(p.five_tuple().has_value());
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  const FiveTuple t = sample_tuple();
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.dst_ip, t.src_ip);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.dst_port, t.src_port);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTuple, HashDistinguishesFields) {
  const FiveTuple base = sample_tuple();
  FiveTuple other = base;
  other.src_port++;
  EXPECT_NE(hash_value(base), hash_value(other));
  other = base;
  other.proto = IpProto::kTcp;
  EXPECT_NE(hash_value(base), hash_value(other));
  EXPECT_EQ(hash_value(base), hash_value(sample_tuple()));
}

TEST(FiveTuple, ToStringFormat) {
  EXPECT_EQ(sample_tuple().to_string(), "udp 10.0.0.1:40000 -> 192.0.2.2:443");
}

TEST(PacketPool, AcquireRelease) {
  PacketPool pool{4, 8};
  {
    auto p = pool.acquire(128);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->size(), 128u);
    EXPECT_EQ(pool.in_use(), 1u);
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketPool, GrowsUpToMax) {
  PacketPool pool{1, 3};
  auto a = pool.acquire(64);
  auto b = pool.acquire(64);
  auto c = pool.acquire(64);
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_TRUE(c);
  EXPECT_EQ(pool.capacity(), 3u);
  auto d = pool.acquire(64);
  EXPECT_FALSE(d);  // exhausted
  EXPECT_EQ(pool.exhaustions(), 1u);
}

TEST(PacketPool, RecyclesInsteadOfGrowing) {
  PacketPool pool{2, 8};
  for (int i = 0; i < 100; ++i) {
    auto p = pool.acquire(64);
    ASSERT_TRUE(p);
  }
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.allocations(), 100u);
}

TEST(PacketPool, MoveTransfersOwnership) {
  PacketPool pool{2, 8};
  auto a = pool.acquire(64);
  PacketPtr b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) — testing moved-from state
  EXPECT_TRUE(b);
  EXPECT_EQ(pool.in_use(), 1u);
}

TEST(PacketPool, ReleaseAndReacquireReusesMemory) {
  PacketPool pool{1, 4};
  Packet* first;
  {
    auto p = pool.acquire(64);
    first = p.get();
  }
  auto q = pool.acquire(256);
  EXPECT_EQ(q.get(), first);
  EXPECT_EQ(q->size(), 256u);
}

// --- deferred payload fill -------------------------------------------------

// Every accessor that can expose payload bytes, const and not, reads the
// same bytes the eager fill wrote, at the sizes that bracket the sweep.
class LazyPayload
    : public ::testing::TestWithParam<std::tuple<std::size_t, IpProto>> {
 protected:
  static constexpr std::uint64_t kSeed = 0x1234'5678'9abc'def0ull;

  Packet built() const {
    const auto [size, proto] = GetParam();
    Packet p;
    PacketBuilder{}.size(size).flow(sample_tuple(proto)).payload_seed(kSeed).build_into(p);
    return p;
  }
  std::vector<std::uint8_t> reference() const {
    const auto [size, proto] = GetParam();
    return eager_reference(size, sample_tuple(proto), kSeed);
  }
};

TEST_P(LazyPayload, EveryAccessorReadsTheEagerBytes) {
  const auto want = reference();
  const std::span<const std::uint8_t> ref{want};
  const auto check = [&](const char* accessor, auto&& read, std::size_t offset) {
    Packet p = built();
    ASSERT_TRUE(p.payload_pending()) << accessor;
    EXPECT_TRUE(same_bytes(read(p), ref.subspan(offset))) << accessor;
    EXPECT_FALSE(p.payload_pending()) << accessor;
  };
  check("data()", [](Packet& p) { return std::span<const std::uint8_t>{p.data()}; }, 0);
  check("data() const", [](const Packet& p) { return p.data(); }, 0);
  check("payload()", [](Packet& p) { return std::span<const std::uint8_t>{p.payload()}; }, 42);
  check("payload() const", [](const Packet& p) { return p.payload(); }, 42);
  check("l4()", [](Packet& p) { return std::span<const std::uint8_t>{p.l4()}; }, 34);
  check("l4() const", [](const Packet& p) { return p.l4(); }, 34);
  check("l3()", [](Packet& p) { return std::span<const std::uint8_t>{p.l3()}; }, 14);
  check("l3() const", [](const Packet& p) { return p.l3(); }, 14);
}

TEST_P(LazyPayload, HeaderPathsDoNotFillAndReadTheSameBeforeAndAfter) {
  Packet p = built();
  const auto ip_before = p.ipv4();
  const auto tuple_before = p.five_tuple();
  EXPECT_TRUE(p.payload_pending());
  ASSERT_TRUE(ip_before.has_value());
  ASSERT_TRUE(tuple_before.has_value());
  EXPECT_EQ(*tuple_before, sample_tuple(std::get<1>(GetParam())));

  (void)p.data();
  const auto ip_after = p.ipv4();
  ASSERT_TRUE(ip_after.has_value());
  EXPECT_EQ(ip_after->src, ip_before->src);
  EXPECT_EQ(ip_after->dst, ip_before->dst);
  EXPECT_EQ(ip_after->protocol, ip_before->protocol);
  EXPECT_EQ(ip_after->total_length, ip_before->total_length);
  EXPECT_EQ(ip_after->ttl, ip_before->ttl);
  EXPECT_EQ(ip_after->checksum, ip_before->checksum);
  EXPECT_EQ(p.five_tuple(), tuple_before);
}

TEST_P(LazyPayload, RewritesOnAPendingPacketMatchRewritesAfterTheFill) {
  Packet lazy = built();
  lazy.rewrite_ipv4_addrs(0x01020304, 0x05060708);
  lazy.rewrite_ports(1111, 2222);
  EXPECT_TRUE(lazy.payload_pending());

  Packet eager = built();
  (void)eager.data();
  eager.rewrite_ipv4_addrs(0x01020304, 0x05060708);
  eager.rewrite_ports(1111, 2222);
  EXPECT_TRUE(same_bytes(lazy.data(), eager.data()));
}

TEST_P(LazyPayload, CopyOfAPendingPacketFillsToTheSameBytes) {
  const Packet original = built();
  Packet copy = original;  // NOLINT(performance-unnecessary-copy-initialization) — the copy is under test
  EXPECT_TRUE(copy.payload_pending());
  const auto want = reference();
  EXPECT_TRUE(same_bytes(copy.data(), want));
  EXPECT_TRUE(original.payload_pending());  // filling the copy leaves the original alone
  EXPECT_TRUE(same_bytes(original.data(), want));
}

INSTANTIATE_TEST_SUITE_P(
    EdgeSizes, LazyPayload,
    ::testing::Combine(::testing::Values(64, 65, 512, 1500),
                       ::testing::Values(IpProto::kUdp, IpProto::kTcp)));

TEST(LazyPayloadPool, RecycledBufferNeverShowsThePreviousOccupant) {
  constexpr std::uint8_t kSentinel = 0xAB;
  PacketPool pool{1, 1};
  {
    auto p = pool.acquire(1500);
    ASSERT_TRUE(p);
    std::fill(p->data().begin(), p->data().end(), kSentinel);
  }
  auto p = pool.acquire(512);
  ASSERT_TRUE(p);
  PacketBuilder{}.size(512).flow(sample_tuple()).payload_seed(99).build_into(*p);
  const Packet& view = *p;
  const auto got = view.data();  // the first read goes through a const accessor
  const auto want = eager_reference(512, sample_tuple(), 99);
  EXPECT_TRUE(same_bytes(got, want));
  // A stale byte would show up as a sentinel the stream does not contain.
  EXPECT_EQ(std::count(got.begin(), got.end(), kSentinel),
            std::count(want.begin(), want.end(), kSentinel));
}

TEST(LazyPayloadPool, ResetsClearThePendingPayload) {
  Packet p;
  PacketBuilder{}.size(256).flow(sample_tuple()).payload_seed(5).build_into(p);
  p.reset_headers(256);
  EXPECT_FALSE(p.payload_pending());
  PacketBuilder{}.size(256).flow(sample_tuple()).payload_seed(5).build_into(p);
  p.reset(256);
  EXPECT_FALSE(p.payload_pending());
  EXPECT_TRUE(std::all_of(p.data().begin(), p.data().end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(LazyPayloadNf, HeaderOnlyNfsNeverFillAndDpiDoes) {
  for (const auto type : {NfType::kFirewall, NfType::kMonitor, NfType::kLogger,
                          NfType::kLoadBalancer, NfType::kNat, NfType::kRateLimiter}) {
    auto nf = make_network_function(type, "nf");
    Packet p;
    PacketBuilder{}.size(1500).flow(sample_tuple(IpProto::kTcp)).build_into(p);
    (void)nf->handle(p, SimTime::zero());
    EXPECT_TRUE(p.payload_pending()) << to_string(type);
  }
  Dpi dpi{"dpi", DpiAction::kAlert};
  dpi.add_signature("NEEDLE");
  Packet p;
  PacketBuilder{}.size(1500).flow(sample_tuple(IpProto::kTcp)).build_into(p);
  (void)dpi.handle(p, SimTime::zero());
  EXPECT_FALSE(p.payload_pending());
}

// --- cached flow key --------------------------------------------------------

/// The flow key a parse of `p`'s bytes gives: a byte copy parsed from
/// scratch.  Read through the const view, which keeps `p`'s own cache.
std::optional<FiveTuple> parsed_tuple(const Packet& p) {
  Packet fresh{p.size()};
  const auto bytes = p.data();
  std::copy(bytes.begin(), bytes.end(), fresh.data().begin());
  return fresh.five_tuple();
}

class TupleCache
    : public ::testing::TestWithParam<std::tuple<std::size_t, IpProto>> {
 protected:
  Packet built() const {
    const auto [size, proto] = GetParam();
    Packet p;
    PacketBuilder{}.size(size).flow(sample_tuple(proto)).payload_seed(7).build_into(p);
    return p;
  }
  bool has_ports() const {
    const IpProto proto = std::get<1>(GetParam());
    return proto == IpProto::kTcp || proto == IpProto::kUdp;
  }
};

TEST_P(TupleCache, SeededTupleEqualsAFreshParse) {
  const Packet p = built();
  const auto tuple = p.five_tuple();
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple, parsed_tuple(p));
  FiveTuple want = sample_tuple(std::get<1>(GetParam()));
  if (!has_ports()) {
    want.src_port = 0;  // a parse reads no ports for other protocols
    want.dst_port = 0;
  }
  EXPECT_EQ(*tuple, want);
}

TEST_P(TupleCache, EachMutableAccessorDropsTheCache) {
  constexpr std::size_t kSrcIpByte = 14 + 12;  // low-address byte of the IPv4 src
  const auto check = [&](const char* accessor, auto&& write) {
    Packet p = built();
    const auto before = p.five_tuple();
    ASSERT_TRUE(before.has_value()) << accessor;
    write(p);
    EXPECT_NE(p.five_tuple(), before) << accessor;
    EXPECT_EQ(p.five_tuple(), parsed_tuple(p)) << accessor;
  };
  check("data()", [](Packet& p) { p.data()[kSrcIpByte] ^= 0xff; });
  check("l3()", [](Packet& p) { p.l3()[kSrcIpByte - 14] ^= 0xff; });
  if (has_ports()) {
    check("l4()", [](Packet& p) { p.l4()[0] ^= 0xff; });  // src port
  }
  // payload() starts past every key byte, so a write through it cannot show;
  // it drops the cache all the same (it goes through data()).
}

TEST_P(TupleCache, RewritesKeepTheCacheEqualToAFreshParse) {
  for (const bool warm : {true, false}) {
    Packet p = built();
    if (warm) {
      ASSERT_TRUE(p.five_tuple().has_value());
    } else {
      (void)p.data();  // a stale cache: the rewrites must not revive it wrongly
    }
    p.rewrite_ipv4_addrs(0x01020304, 0x05060708);
    EXPECT_EQ(p.five_tuple(), parsed_tuple(p)) << "warm=" << warm;
    EXPECT_EQ(p.five_tuple()->src_ip, 0x01020304u);
    p.rewrite_ports(1111, 2222);
    EXPECT_EQ(p.five_tuple(), parsed_tuple(p)) << "warm=" << warm;
    EXPECT_EQ(p.five_tuple()->src_port, has_ports() ? 1111 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndProtocols, TupleCache,
    ::testing::Combine(::testing::Values(64, 1500),
                       ::testing::Values(IpProto::kUdp, IpProto::kTcp, IpProto::kIcmp)));

TEST(TupleCachePool, RecycledPacketNeverReportsThePreviousOccupant) {
  PacketPool pool{1, 1};
  {
    auto p = pool.acquire(512);
    ASSERT_TRUE(p);
    PacketBuilder{}.size(512).flow(sample_tuple(IpProto::kTcp)).build_into(*p);
    ASSERT_TRUE(p->five_tuple().has_value());
  }
  auto p = pool.acquire(512);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->five_tuple(), std::nullopt);  // zeroed headers parse to no key
  FiveTuple other = sample_tuple(IpProto::kUdp);
  other.src_port = 5555;
  PacketBuilder{}.size(512).flow(other).build_into(*p);
  EXPECT_EQ(p->five_tuple(), other);
  EXPECT_EQ(p->five_tuple(), parsed_tuple(*p));
}

// Builder validity across the paper's full size sweep and both L4 protocols.
class BuilderSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, IpProto>> {};

TEST_P(BuilderSweep, FrameIsInternallyConsistent) {
  const auto [size, proto] = GetParam();
  Packet p;
  PacketBuilder{}.size(size).flow(sample_tuple(proto)).build_into(p);
  EXPECT_EQ(p.size(), size);
  const auto ip = p.ipv4();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->total_length, size - EthernetHeader::kSize);
  EXPECT_TRUE(Ipv4Header::verify_checksum(p.l3()));
  const auto tuple = p.five_tuple();
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->proto, proto);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, BuilderSweep,
    ::testing::Combine(::testing::Values(64, 128, 256, 512, 1024, 1500),
                       ::testing::Values(IpProto::kUdp, IpProto::kTcp)));

}  // namespace
}  // namespace pam
