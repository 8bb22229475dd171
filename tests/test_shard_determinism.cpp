// The sharded-kernel contract: a datacenter run is bit-identical for any
// worker-thread count.  One scaled-down cluster-datacenter scenario runs
// at threads = 1, 2 and 8 and the full metrics JSON must match byte for
// byte — with at least one committed cross-rack lease in the log, so the
// equality covers the fabric path, the orchestrator and the report
// assembly, not just independent racks.  Unit tests for the two pieces
// the contract rests on — EpochExecutor's slice/barrier protocol and
// ShardFabric's (dst, sent_at, src, seq) exchange order — ride along, as
// do checks
// that a leased visit hands over the packet itself, pending payload and
// all.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "chain/chain_spec.hpp"
#include "experiment/invariants.hpp"
#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_runner.hpp"
#include "experiment/scenario_spec.hpp"
#include "nf/dpi.hpp"
#include "sim/datacenter_simulator.hpp"
#include "sim/epoch_executor.hpp"
#include "sim/shard_fabric.hpp"

namespace pam {
namespace {

// cluster-datacenter.scn scaled down for unit-test time: 4 racks x 4
// servers, every slot of rack 0 saturated so intra-rack scale-out is
// infeasible and the orchestrator must lease across racks.
constexpr const char* kDatacenterScn = R"([scenario]
name = shard-determinism
kind = cluster
description = scaled-down sharded datacenter for the bit-identity gate
duration_ms = 60
warmup_ms = 10
seed = 7

[traffic]
arrival = cbr
sizes = fixed 512

[chain]
name = hot-0
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8
server = 0

[chain]
name = hot-1
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8
server = 1

[chain]
name = hot-2
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.6
server = 2

[chain]
name = hot-3
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.6
server = 3

[chain]
name = web
spec = wire | S:Firewall S:LoadBalancer | host
offered_gbps = 1.0
server = 4

[chain]
name = spare
spec = wire | S:Firewall | wire
offered_gbps = 0.2
server = 9

[cluster]
servers = 16
rebalance = on
inter_server_us = 50
trigger_utilization = 1
target_max_load = 0.95
period_ms = 10
first_check_ms = 10
cooldown_ms = 20
shards = 4
threads = 1
cross_rack_us = 100
orchestrate = on
)";

RunResult run_at(const ScenarioSpec& spec, std::size_t threads) {
  const ScenarioRunner runner;
  auto result = runner.run(spec, threads);
  EXPECT_TRUE(result) << (result ? std::string{} : result.error().what());
  return std::move(result).value();
}

std::string to_json(const RunResult& result) {
  std::ostringstream out;
  write_metrics_json(result, out);
  return out.str();
}

/// The per-slot view partitions the fleet: the slots' packet sums are the
/// fleet totals, every chain is homed on one slot and every node, leased
/// ones included, is hosted on one slot.
void expect_slots_partition_fleet(const ScenarioSpec& spec,
                                  const ClusterResult& cr) {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::size_t homed = 0;
  std::size_t hosted = 0;
  for (const ClusterServerResult& slot : cr.per_server) {
    injected += slot.injected;
    delivered += slot.delivered;
    dropped += slot.dropped;
    homed += slot.chains_homed;
    hosted += slot.nodes_hosted;
  }
  std::size_t nodes = 0;
  for (const ChainDecl& decl : spec.chains) {
    auto chain = parse_chain_spec(decl.spec, decl.name);
    ASSERT_TRUE(chain) << chain.error().what();
    nodes += chain.value().size();
  }
  EXPECT_EQ(injected, cr.fleet.injected);
  EXPECT_EQ(delivered, cr.fleet.delivered);
  EXPECT_EQ(dropped, cr.fleet.dropped_total());
  EXPECT_EQ(homed, spec.chains.size());
  EXPECT_EQ(hosted, nodes);
}

TEST(ShardDeterminism, BitIdenticalJsonAcrossThreadCounts) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();

  const RunResult r1 = run_at(spec.value(), 1);
  const std::string j1 = to_json(r1);
  ASSERT_FALSE(j1.empty());

  // The run must exercise the cross-rack machinery, or the equality below
  // only proves that independent racks are independent.
  ASSERT_TRUE(r1.cluster.has_value());
  EXPECT_GE(r1.cluster->cross_rack_moves, 1u);
  EXPECT_GT(r1.cluster->cross_rack_frames, 0u);
  EXPECT_GT(r1.cluster->epochs, 0u);
  EXPECT_TRUE(r1.cluster->conserved);
  EXPECT_NE(j1.find("\"cross_rack_move\""), std::string::npos);

  EXPECT_EQ(j1, to_json(run_at(spec.value(), 2)));
  EXPECT_EQ(j1, to_json(run_at(spec.value(), 8)));
}

TEST(ShardDeterminism, InvariantsHoldOnShardedRun) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  const RunResult result = run_at(spec.value(), 2);
  const InvariantReport report = check_invariants(result);
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(ShardDeterminism, ShardTotalsPartitionTheFleet) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  const RunResult result = run_at(spec.value(), 1);
  ASSERT_TRUE(result.cluster.has_value());
  const ClusterResult& cr = *result.cluster;
  ASSERT_EQ(cr.shard_totals.size(), cr.shards);
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t in_flight = 0;
  for (const ClusterShardResult& shard : cr.shard_totals) {
    injected += shard.injected;
    delivered += shard.delivered;
    dropped += shard.dropped;
    in_flight += shard.in_flight_at_end;
  }
  EXPECT_EQ(injected, cr.fleet.injected);
  EXPECT_EQ(delivered, cr.fleet.delivered);
  EXPECT_EQ(dropped, cr.fleet.dropped_total());
  EXPECT_EQ(in_flight, cr.fleet.in_flight_at_end);
  // The run must hold a lease, so the node count covers a leased node.
  EXPECT_GE(cr.cross_rack_moves, 1u);
  expect_slots_partition_fleet(spec.value(), cr);
}

TEST(ShardDeterminism, ThreadsFlagRejectedOnUnshardedSpec) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  ScenarioSpec single = spec.value();
  single.cluster.shards = 1;
  single.cluster.threads = 1;
  const ScenarioRunner runner;
  auto result = runner.run(single, 4);
  ASSERT_FALSE(result);
  EXPECT_NE(result.error().what().find("--threads"), std::string::npos);
}

TEST(ShardDeterminism, UnshardedJsonCarriesNoShardFields) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  ScenarioSpec single = spec.value();
  single.cluster.shards = 1;
  single.cluster.threads = 1;
  const RunResult result = run_at(single, 0);

  // shards == 1 runs as one rack: one shard total that partitions the
  // fleet, real epochs, and nothing across racks.
  ASSERT_TRUE(result.cluster.has_value());
  const ClusterResult& cr = *result.cluster;
  ASSERT_EQ(cr.shard_totals.size(), 1u);
  const ClusterShardResult& shard = cr.shard_totals[0];
  EXPECT_EQ(shard.injected, cr.fleet.injected);
  EXPECT_EQ(shard.delivered, cr.fleet.delivered);
  EXPECT_EQ(shard.dropped, cr.fleet.dropped_total());
  EXPECT_EQ(shard.in_flight_at_end, cr.fleet.in_flight_at_end);
  EXPECT_EQ(cr.cross_rack_moves, 0u);
  EXPECT_GT(cr.epochs, 0u);
  expect_slots_partition_fleet(single, cr);

  // shards == 1 must stay byte-compatible with the pre-sharding schema.
  const std::string json = to_json(result);
  for (const char* key : {"\"shards\"", "\"epochs\"", "\"cross_rack_moves\"",
                          "\"cross_rack_hops\"", "\"cross_rack_frames\"",
                          "\"shard_totals\"", "\"nodes_remote\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
}

// --- the packet crosses racks, its pending payload with it --------------------

/// Stands in for the home node after a leased one: records whether each
/// packet's payload is still pending when it gets back, then reads it.
class PayloadProbe final : public NetworkFunction {
 public:
  PayloadProbe() : NetworkFunction("probe") {}
  [[nodiscard]] NfType type() const noexcept override { return NfType::kLogger; }

  std::vector<bool> pending;
  std::vector<std::vector<std::uint8_t>> frames;

 protected:
  [[nodiscard]] Verdict process(Packet& pkt, SimTime /*now*/) override {
    pending.push_back(pkt.payload_pending());
    const auto bytes = pkt.data();
    frames.emplace_back(bytes.begin(), bytes.end());
    return Verdict::kForward;
  }
};

struct ProbeRun {
  std::vector<bool> pending;
  std::vector<std::vector<std::uint8_t>> frames;
  DatacenterReport report;
};

DatacenterSimulator::Options two_racks() {
  DatacenterSimulator::Options options;
  options.shards = 2;
  options.servers_total = 2;
  return options;
}

/// Runs the two-node chain `spec` on `dc`, homed on rack 0, with node 1
/// replaced by a PayloadProbe.  `first`, when given, replaces node 0; with
/// `lease`, node 0 runs on rack 1.
ProbeRun run_probe(DatacenterSimulator& dc, const char* spec, bool lease,
                   std::unique_ptr<NetworkFunction> first = nullptr) {
  auto chain = parse_chain_spec(spec, "probe");
  EXPECT_TRUE(chain) << (chain ? std::string{} : chain.error().what());
  TrafficSourceConfig traffic;
  traffic.rate = RateProfile::constant(Gbps{0.5});
  traffic.sizes = PacketSizeDistribution::fixed(512);
  traffic.seed = 7;
  const std::size_t c = dc.add_chain(std::move(chain).value(), traffic, 0);
  auto probe = std::make_unique<PayloadProbe>();
  PayloadProbe* seen = probe.get();
  dc.chain_sim(c).replace_nf(1, std::move(probe));
  if (first) {
    dc.chain_sim(c).replace_nf(0, std::move(first));
  }
  if (lease) {
    EXPECT_TRUE(dc.commit_lease(c, 0, 1));
  }
  ProbeRun out;
  dc.run(SimTime::milliseconds(20), SimTime::milliseconds(5), 2);
  out.report = dc.report();
  out.pending = std::move(seen->pending);
  out.frames = std::move(seen->frames);
  return out;
}

constexpr const char* kMonitorChain = "wire | S:Monitor S:Logger | wire";

TEST(CrossRackLease, HeaderOnlyNfLeavesPayloadPending) {
  DatacenterSimulator local_dc{two_racks()};
  DatacenterSimulator leased_dc{two_racks()};
  const ProbeRun local = run_probe(local_dc, kMonitorChain, false);
  const ProbeRun leased = run_probe(leased_dc, kMonitorChain, true);
  EXPECT_EQ(local.report.cross_rack_frames, 0u);
  EXPECT_GT(leased.report.cross_rack_frames, 0u);

  // Monitor reads headers only, so the payload crosses racks twice and
  // comes back unfilled; once read, every byte is what a local run reads.
  ASSERT_GT(leased.pending.size(), 1'000u);
  EXPECT_EQ(std::count(leased.pending.begin(), leased.pending.end(), false), 0);
  EXPECT_EQ(leased.frames, local.frames);
  EXPECT_TRUE(leased.report.fleet.conserved());
}

TEST(CrossRackLease, LeasedDpiFillsPayloadAndMatches) {
  DatacenterSimulator local_dc{two_racks()};
  const ProbeRun local = run_probe(local_dc, kMonitorChain, false);
  ASSERT_FALSE(local.frames.empty());
  // A signature taken from the first packet's payload bytes.
  const std::vector<std::uint8_t>& first = local.frames.front();
  ASSERT_GT(first.size(), 116u);
  const std::string signature(first.begin() + 100, first.begin() + 116);
  auto dpi = std::make_unique<Dpi>("DPI", DpiAction::kAlert);
  dpi->add_signature(signature);
  const Dpi* leased_dpi = dpi.get();  // moves into the lease, lives with dc

  DatacenterSimulator dc{two_racks()};
  const ProbeRun leased =
      run_probe(dc, "wire | S:DPI S:Logger | wire", true, std::move(dpi));
  EXPECT_GT(leased.report.cross_rack_frames, 0u);
  ASSERT_EQ(leased.pending.size(), local.pending.size());
  EXPECT_EQ(std::count(leased.pending.begin(), leased.pending.end(), true), 0);
  EXPECT_EQ(leased.frames, local.frames);
  EXPECT_GE(leased_dpi->hits_for(signature), 1u);
}

// --- EpochExecutor ------------------------------------------------------------

TEST(EpochExecutor, EveryShardRunsExactlyOncePerEpoch) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    EpochExecutor executor(threads, 5);
    std::vector<int> counts(5, 0);
    for (int epoch = 0; epoch < 50; ++epoch) {
      executor.run_epoch([&](std::size_t s) { ++counts[s]; });
    }
    for (std::size_t s = 0; s < counts.size(); ++s) {
      EXPECT_EQ(counts[s], 50) << "threads=" << threads << " shard=" << s;
    }
  }
}

TEST(EpochExecutor, SingleShardDegeneratesToInline) {
  EpochExecutor executor(8, 1);
  int runs = 0;
  executor.run_epoch([&](std::size_t s) {
    EXPECT_EQ(s, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

// --- ShardFabric --------------------------------------------------------------

TEST(ShardFabric, ExchangeDrainsInDstSrcSeqOrder) {
  ShardFabric fabric(3);
  // Interleave sends from several sources, all at one send time; per
  // (src, dst) lane order must survive, and equal send times must drain
  // dst-major, src-minor.
  for (int i = 0; i < 3; ++i) {
    FabricFrame f20 = fabric.acquire(2);
    f20.packet_id = 200 + i;
    fabric.send(2, 0, std::move(f20));
    FabricFrame f10 = fabric.acquire(1);
    f10.packet_id = 100 + i;
    fabric.send(1, 0, std::move(f10));
    FabricFrame f12 = fabric.acquire(1);
    f12.packet_id = 120 + i;
    fabric.send(1, 2, std::move(f12));
  }
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;
  fabric.exchange([&](std::size_t /*src*/, std::size_t dst, FabricFrame&& frame) {
    seen.emplace_back(dst, frame.packet_id);
    fabric.release(dst, std::move(frame));
  });
  const std::vector<std::pair<std::size_t, std::uint64_t>> expect = {
      {0, 100}, {0, 101}, {0, 102}, {0, 200}, {0, 201}, {0, 202},
      {2, 120}, {2, 121}, {2, 122},
  };
  EXPECT_EQ(seen, expect);
  // Every mailbox is empty: a second exchange delivers nothing.
  std::size_t redelivered = 0;
  fabric.exchange([&](std::size_t, std::size_t, FabricFrame&&) { ++redelivered; });
  EXPECT_EQ(redelivered, 0u);
  EXPECT_EQ(fabric.frames_exchanged(), 9u);
  EXPECT_EQ(fabric.frames_from(1), 6u);
  EXPECT_EQ(fabric.frames_from(2), 3u);
}

TEST(ShardFabric, ExchangeMergesLanesByArrivalTime) {
  ShardFabric fabric(4);
  // Three sources send to shard 0 with interleaved and equal send times
  // (in us); shard 0 sends one early frame to shard 1.  Each lane is in
  // send order, as a shard's clock gives it.
  const std::vector<std::pair<std::size_t, std::vector<int>>> lanes = {
      {1, {10, 20, 20, 40}},
      {2, {5, 20, 30}},
      {3, {10, 10, 50}},
  };
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto& [src, times] : lanes) {
      if (i < times.size()) {
        FabricFrame frame = fabric.acquire(src);
        frame.sent_at = SimTime::microseconds(times[i]);
        fabric.send(src, 0, std::move(frame));
      }
    }
  }
  FabricFrame early = fabric.acquire(0);
  early.sent_at = SimTime::microseconds(1);
  fabric.send(0, 1, std::move(early));

  // (dst, sent_at in us, src, seq) of each delivery.
  using Delivery = std::tuple<std::size_t, double, std::size_t, std::uint64_t>;
  std::vector<Delivery> seen;
  fabric.exchange([&](std::size_t src, std::size_t dst, FabricFrame&& frame) {
    seen.emplace_back(dst, frame.sent_at.us(), src, frame.seq);
    fabric.release(dst, std::move(frame));
  });
  const std::vector<Delivery> expect = {
      {0, 5, 2, 0},  {0, 10, 1, 0}, {0, 10, 3, 0}, {0, 10, 3, 1},
      {0, 20, 1, 1}, {0, 20, 1, 2}, {0, 20, 2, 1}, {0, 30, 2, 2},
      {0, 40, 1, 3}, {0, 50, 3, 2}, {1, 1, 0, 0},
  };
  EXPECT_EQ(seen, expect);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(fabric.frames_exchanged(), 11u);
  std::size_t redelivered = 0;
  fabric.exchange([&](std::size_t, std::size_t, FabricFrame&&) { ++redelivered; });
  EXPECT_EQ(redelivered, 0u);
}

TEST(ShardFabric, RecyclesFrameStorage) {
  ShardFabric fabric(2);
  // First round allocates; after release the second round must reuse the
  // same arena storage (capacity survives the recycle).
  FabricFrame a = fabric.acquire(0);
  a.bytes.assign(1500, 0xab);
  const void* storage = a.bytes.data();
  fabric.send(0, 1, std::move(a));
  fabric.exchange([&](std::size_t, std::size_t, FabricFrame&& frame) {
    fabric.release(0, std::move(frame));
  });
  FabricFrame b = fabric.acquire(0);
  EXPECT_GE(b.bytes.capacity(), 1500u);
  EXPECT_EQ(static_cast<const void*>(b.bytes.data()), storage);
  fabric.release(0, std::move(b));
}

}  // namespace
}  // namespace pam
