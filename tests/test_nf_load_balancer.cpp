// Load balancer tests: consistent hashing spread, a pinned flow-to-backend
// mapping, flow affinity, minimal remapping on backend removal, and state
// migration.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "nf/load_balancer.hpp"
#include "packet/packet_builder.hpp"
#include "trafficgen/flow_generator.hpp"

namespace pam {
namespace {

Backend backend(std::uint32_t i) {
  return Backend{(198u << 24) | (51u << 16) | (100u << 8) | i, 8080,
                 "b" + std::to_string(i)};
}

FiveTuple flow(std::uint32_t i) {
  return FiveTuple{0x0a000000 | i, 0xc0000202, static_cast<std::uint16_t>(1024 + (i % 60000)),
                   443, IpProto::kTcp};
}

Packet make_packet(const FiveTuple& t) {
  Packet p;
  PacketBuilder{}.size(128).flow(t).build_into(p);
  return p;
}

/// The ring the NF factory builds: backends 1-4 at 64 vnodes each.
ConsistentHashRing factory_ring() {
  ConsistentHashRing ring{64};
  for (std::uint32_t b = 1; b <= 4; ++b) {
    ring.add(backend(b));
  }
  return ring;
}

/// Traffic-source flows at a fixed seed: 4,096 of them, enough that some
/// hash past the ring's last point and take the wrap-around.
std::vector<FiveTuple> generator_flows() {
  FlowGeneratorConfig config;
  config.flow_count = 4096;
  return FlowGenerator{config, 2018}.flows();
}

/// FNV-1a over the picked backend address of every flow, in order.
std::uint64_t pick_digest(const ConsistentHashRing& ring,
                          const std::vector<FiveTuple>& flows) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const FiveTuple& f : flows) {
    const std::uint32_t ip = ring.pick(f).ip;
    for (int shift = 0; shift < 32; shift += 8) {
      h = (h ^ ((ip >> shift) & 0xffu)) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(ConsistentHashRing, EmptyRingThrows) {
  const ConsistentHashRing ring{8};
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.pick(flow(1)), std::logic_error);
}

TEST(ConsistentHashRing, SingleBackendTakesAll) {
  ConsistentHashRing ring{8};
  ring.add(backend(1));
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.pick(flow(i)).ip, backend(1).ip);
  }
}

TEST(ConsistentHashRing, SpreadIsRoughlyEven) {
  ConsistentHashRing ring{128};
  for (std::uint32_t b = 1; b <= 4; ++b) {
    ring.add(backend(b));
  }
  std::map<std::uint32_t, int> counts;
  constexpr int kFlows = 8000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    ++counts[ring.pick(flow(i)).ip];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [ip, count] : counts) {
    EXPECT_GT(count, kFlows / 4 / 2) << "backend starved";
    EXPECT_LT(count, kFlows / 4 * 2) << "backend overloaded";
  }
}

TEST(ConsistentHashRing, RemovalOnlyRemapsVictims) {
  ConsistentHashRing ring{128};
  for (std::uint32_t b = 1; b <= 4; ++b) {
    ring.add(backend(b));
  }
  std::map<std::uint32_t, std::uint32_t> before;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    before[i] = ring.pick(flow(i)).ip;
  }
  ASSERT_TRUE(ring.remove(backend(2).ip));
  int moved_from_surviving = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::uint32_t now = ring.pick(flow(i)).ip;
    EXPECT_NE(now, backend(2).ip);
    if (before[i] != backend(2).ip && now != before[i]) {
      ++moved_from_surviving;
    }
  }
  // Consistent hashing: flows on surviving backends stay put.
  EXPECT_EQ(moved_from_surviving, 0);
}

// Which backend each flow lands on is part of every report digest, so a
// change to the ring's storage must not move one flow.
TEST(ConsistentHashRing, FactoryRingMappingIsPinned) {
  const ConsistentHashRing ring = factory_ring();
  const std::vector<FiveTuple> flows = generator_flows();
  ASSERT_EQ(flows.size(), 4096u);
  EXPECT_EQ(pick_digest(ring, flows), 0xe059a3bd26a7b44bull);
}

TEST(ConsistentHashRing, ReAddKeepsPicksAndRemoveEmpties) {
  ConsistentHashRing ring = factory_ring();
  const std::vector<FiveTuple> flows = generator_flows();
  const std::uint64_t before = pick_digest(ring, flows);
  ring.add(backend(2));  // its points are already on the ring
  ring.add(backend(4));
  EXPECT_EQ(pick_digest(ring, flows), before);
  for (std::uint32_t b = 1; b <= 4; ++b) {
    EXPECT_TRUE(ring.remove(backend(b).ip));
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.backend_count(), 0u);
  EXPECT_THROW((void)ring.pick(flows.front()), std::logic_error);
}

TEST(ConsistentHashRing, RemoveUnknownReturnsFalse) {
  ConsistentHashRing ring{8};
  ring.add(backend(1));
  EXPECT_FALSE(ring.remove(0xdeadbeef));
  EXPECT_EQ(ring.backend_count(), 1u);
}

TEST(LoadBalancer, RewritesDestination) {
  LoadBalancer lb{"lb"};
  lb.add_backend(backend(1));
  Packet p = make_packet(flow(5));
  EXPECT_EQ(lb.handle(p, SimTime::zero()), Verdict::kForward);
  const auto tuple = p.five_tuple();
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->dst_ip, backend(1).ip);
  EXPECT_TRUE(Ipv4Header::verify_checksum(p.l3()));
}

TEST(LoadBalancer, FlowAffinityIsSticky) {
  LoadBalancer lb{"lb"};
  for (std::uint32_t b = 1; b <= 4; ++b) {
    lb.add_backend(backend(b));
  }
  const FiveTuple t = flow(77);
  Packet first = make_packet(t);
  (void)lb.handle(first, SimTime::zero());
  const auto chosen = first.five_tuple()->dst_ip;
  for (int i = 0; i < 20; ++i) {
    Packet p = make_packet(t);
    (void)lb.handle(p, SimTime::zero());
    EXPECT_EQ(p.five_tuple()->dst_ip, chosen);
  }
  EXPECT_EQ(lb.tracked_flows(), 1u);
}

TEST(LoadBalancer, DropsWithoutBackends) {
  LoadBalancer lb{"lb"};
  Packet p = make_packet(flow(1));
  EXPECT_EQ(lb.handle(p, SimTime::zero()), Verdict::kDrop);
}

TEST(LoadBalancer, DropsNonIp) {
  LoadBalancer lb{"lb"};
  lb.add_backend(backend(1));
  Packet p{64};
  EXPECT_EQ(lb.handle(p, SimTime::zero()), Verdict::kDrop);
}

TEST(LoadBalancer, RemoveBackendInvalidatesItsFlows) {
  LoadBalancer lb{"lb"};
  lb.add_backend(backend(1));
  lb.add_backend(backend(2));
  // Pin many flows.
  for (std::uint32_t i = 0; i < 200; ++i) {
    Packet p = make_packet(flow(i));
    (void)lb.handle(p, SimTime::zero());
  }
  const std::size_t before = lb.tracked_flows();
  ASSERT_TRUE(lb.remove_backend(backend(1).ip));
  EXPECT_LT(lb.tracked_flows(), before);
  // Every flow must now resolve to backend 2.
  for (std::uint32_t i = 0; i < 200; ++i) {
    Packet p = make_packet(flow(i));
    (void)lb.handle(p, SimTime::zero());
    EXPECT_EQ(p.five_tuple()->dst_ip, backend(2).ip);
  }
}

TEST(LoadBalancer, PerBackendCountersAccumulate) {
  LoadBalancer lb{"lb"};
  lb.add_backend(backend(1));
  for (int i = 0; i < 5; ++i) {
    Packet p = make_packet(flow(1));
    (void)lb.handle(p, SimTime::zero());
  }
  const auto& counts = lb.per_backend_packets();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.at(backend(1).ip), 5u);
}

TEST(LoadBalancer, StateRoundTripKeepsAffinity) {
  LoadBalancer lb{"lb"};
  for (std::uint32_t b = 1; b <= 3; ++b) {
    lb.add_backend(backend(b));
  }
  std::map<std::uint32_t, std::uint32_t> assignment;
  for (std::uint32_t i = 0; i < 100; ++i) {
    Packet p = make_packet(flow(i));
    (void)lb.handle(p, SimTime::zero());
    assignment[i] = p.five_tuple()->dst_ip;
  }

  LoadBalancer restored{"lb2"};
  restored.import_state(lb.export_state());
  EXPECT_EQ(restored.backend_count(), 3u);
  EXPECT_EQ(restored.tracked_flows(), lb.tracked_flows());
  // Affinity must survive the migration: same flow -> same backend.
  for (std::uint32_t i = 0; i < 100; ++i) {
    Packet p = make_packet(flow(i));
    (void)restored.handle(p, SimTime::zero());
    EXPECT_EQ(p.five_tuple()->dst_ip, assignment[i]) << "flow " << i;
  }
}

TEST(LoadBalancer, StateRoundTripKeepsVnodeCount) {
  // A migrated balancer must hash new flows exactly as its source did, so
  // the restored ring keeps the instance's own vnode count.
  LoadBalancer lb{"lb", 8};
  for (std::uint32_t b = 1; b <= 4; ++b) {
    lb.add_backend(backend(b));
  }
  LoadBalancer restored{"lb2", 8};
  restored.import_state(lb.export_state());

  std::size_t moved = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    Packet a = make_packet(flow(i));
    Packet b = make_packet(flow(i));
    (void)lb.handle(a, SimTime::zero());
    (void)restored.handle(b, SimTime::zero());
    moved += a.five_tuple()->dst_ip != b.five_tuple()->dst_ip ? 1 : 0;
  }
  EXPECT_EQ(moved, 0u);
}

TEST(LoadBalancer, ImportRejectsTruncatedBlob) {
  LoadBalancer lb{"lb"};
  lb.add_backend(backend(1));
  NfState snapshot = lb.export_state();
  snapshot.blob.resize(snapshot.blob.size() - 2);
  LoadBalancer other{"lb2"};
  EXPECT_THROW(other.import_state(snapshot), std::runtime_error);
}

}  // namespace
}  // namespace pam
