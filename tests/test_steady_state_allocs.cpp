// The per-packet datapath allocates nothing in steady state.
//
// This binary replaces the global operator new with a counting one (each
// test_*.cpp links into its own executable, so no other test sees it).
// Every steady-state case runs a DatacenterSimulator until its packet
// pools, FCFS rings, ingress window and latency reservoirs have all reached
// their high-water marks; then a window of whole epochs, opened and closed
// from the barrier hook, must make zero heap allocations.  The window
// counts everything an epoch does: the events, EpochExecutor::run_epoch,
// the fabric exchange and the barrier itself.
//
// The first case runs the Figure-1 chain on a one-rack, one-slot
// simulator: tens of thousands of packet hops, metered, with drop-tail
// losses in the overload case.  Two more move the same chain's Monitor off
// its home slot, so every packet also makes two extra hops: to another
// slot of the same rack over the rack fabric, or to a lease on another
// rack over the shard fabric.
//
// A last case checks that buffers follow the traffic, not the fleet: a
// 64-rack datacenter with its chains on rack 0 pays a few allocations per
// rack to set up, and racks that home no chain never grow a packet pool.
//
// Frames have one fixed size.  A pooled packet's buffer grows the first
// time it carries a frame larger than any it carried before, so under a
// size mix the pool keeps a trickle of such growth until every pooled
// packet has held a largest frame: a pool warm-up cost, not a hop cost.

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "chain/chain_builder.hpp"
#include "one_chain.hpp"
#include "sim/datacenter_simulator.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pam {
namespace {

/// A datacenter run whose steady-state window is counted from the barrier
/// hook: allocations, events on every rack and packets `chain` injected
/// over the epochs in [300 ms, 350 ms) of a 400 ms run.  By 300 ms more
/// than 65,536 packets have arrived at every rate used here: the ingress
/// window is at its cap, every LatencyRecorder reservoir is full, and every
/// pool, ring and mailbox has reached its high-water mark.
struct WindowedRun {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t injected = 0;
};

WindowedRun run_with_window(DatacenterSimulator& dc, std::size_t chain,
                            std::size_t threads) {
  const SimTime window_start = SimTime::milliseconds(300);
  const SimTime window_end = SimTime::milliseconds(350);
  const auto executed = [&dc] {
    std::uint64_t n = 0;
    for (std::size_t r = 0; r < dc.num_racks(); ++r) {
      n += dc.rack(r).kernel().queue().executed();
    }
    return n;
  };
  WindowedRun out;
  std::uint64_t injected_before = 0;
  std::uint64_t executed_before = 0;
  dc.set_barrier_hook([&](SimTime t, bool draining) {
    const bool in_window = !draining && t >= window_start && t < window_end;
    if (in_window == g_counting.load()) {
      return;
    }
    if (in_window) {
      injected_before = dc.chain_sim(chain).build_report().injected;
      executed_before = executed();
      g_allocations.store(0);
      g_counting.store(true);
      return;
    }
    g_counting.store(false);
    out.allocations = g_allocations.load();
    out.events = executed() - executed_before;
    out.injected = dc.chain_sim(chain).build_report().injected - injected_before;
  });
  dc.run(SimTime::milliseconds(400), SimTime::milliseconds(10), threads);
  return out;
}

TrafficSourceConfig steady_traffic(double gbps = 1.0) {
  TrafficSourceConfig traffic;
  traffic.rate = RateProfile::constant(Gbps{gbps});
  traffic.sizes = PacketSizeDistribution::fixed(512);
  traffic.seed = 2018;
  return traffic;
}

class SteadyStateAllocs : public ::testing::TestWithParam<double> {};

TEST_P(SteadyStateAllocs, PacketHopsDoNotAllocate) {
  const double gbps = GetParam();
  OneChain one{paper_figure1_chain(), steady_traffic(gbps)};
  const WindowedRun run = run_with_window(one.dc(), 0, /*threads=*/1);
  const SimReport report = one.sim().build_report();

  EXPECT_EQ(run.allocations, 0u) << "over " << run.events << " events";
  EXPECT_GT(run.events, 100'000u);
  EXPECT_GT(run.injected, 10'000u);
  EXPECT_GT(report.latency.count(), 65'536u);
  EXPECT_TRUE(report.conserved());
  const std::uint64_t queue_drops = report.dropped_queue_nic + report.dropped_queue_cpu;
  if (gbps > 2.0) {
    EXPECT_GT(queue_drops, 0u);
  } else {
    EXPECT_EQ(queue_drops, 0u);
  }
}

// 1.0 Gbps is within the chain's capacity; 2.2 Gbps (the Figure-1
// overload rate) keeps the hot queue full and dropping.
INSTANTIATE_TEST_SUITE_P(
    FigureOneChain, SteadyStateAllocs, ::testing::Values(1.0, 2.2),
    [](const ::testing::TestParamInfo<double>& info) {
      return std::string{info.param > 2.0 ? "overload" : "underload"};
    });

constexpr std::size_t kMonitor = 1;  ///< the Figure-1 chain's second node

TEST(SteadyStateAllocs, CrossRackLeaseDoesNotAllocate) {
  DatacenterSimulator::Options options;
  options.shards = 2;
  options.servers_total = 2;
  DatacenterSimulator dc{options};
  const std::size_t chain = dc.add_chain(paper_figure1_chain(), steady_traffic(), 0);
  ASSERT_TRUE(dc.commit_lease(chain, kMonitor, 1));

  const WindowedRun run = run_with_window(dc, chain, /*threads=*/2);
  const DatacenterReport report = dc.report();
  EXPECT_EQ(run.allocations, 0u) << "over " << run.events << " events, "
                                 << run.injected << " packets";
  EXPECT_GT(run.injected, 10'000u);
  EXPECT_GT(run.events, 100'000u);
  EXPECT_GE(report.cross_rack_frames, 2 * run.injected);
  EXPECT_TRUE(report.fleet.conserved());
  for (std::size_t r = 0; r < dc.num_racks(); ++r) {
    EXPECT_EQ(dc.rack(r).kernel().pool().in_use(), 0u) << "rack " << r;
  }
}

TEST(SteadyStateAllocs, CrossServerHopDoesNotAllocate) {
  // One rack, two slots: the chain is homed on slot 0 and its Monitor runs
  // on slot 1, so every packet crosses the rack fabric there and back.
  DatacenterSimulator::Options options;
  options.shards = 1;
  options.servers_total = 2;
  DatacenterSimulator dc{options};
  const std::size_t chain = dc.add_chain(paper_figure1_chain(), steady_traffic(), 0);
  const Location monitor_at = dc.chain_sim(chain).chain().location_of(kMonitor);
  dc.rack(0).move_node(dc.local_chain_of(chain), kMonitor, 1, monitor_at);

  const WindowedRun run = run_with_window(dc, chain, /*threads=*/1);
  const DatacenterReport report = dc.report();
  EXPECT_EQ(run.allocations, 0u) << "over " << run.events << " events, "
                                 << run.injected << " packets";
  EXPECT_GT(run.injected, 10'000u);
  EXPECT_GT(run.events, 100'000u);
  EXPECT_GE(report.fleet.inter_server_hops, 2 * run.injected);
  EXPECT_TRUE(report.fleet.conserved());
}

TEST(SteadyStateAllocs, OneSlotSimulatorSetUpIsBounded) {
  // The shape every compare, capacity and timeline run builds: one rack,
  // one slot, one chain.
  const ServiceChain chain = paper_figure1_chain();
  const TrafficSourceConfig traffic = steady_traffic();

  g_allocations.store(0);
  g_allocated_bytes.store(0);
  g_counting.store(true);
  DatacenterSimulator dc{DatacenterSimulator::Options{}};
  const std::uint64_t rack_allocations = g_allocations.load();
  dc.add_chain(chain, traffic, 0);
  g_counting.store(false);
  const std::uint64_t setup_allocations = g_allocations.load();
  const std::uint64_t setup_bytes = g_allocated_bytes.load();

  // Measured: 13 for the simulator (its one rack, kernel and one-lane
  // fabric), within the per-rack budget IdleRacksCostNothing sets, and
  // 37 allocations of 19,482 bytes once the Figure-1 chain is added.  No
  // NF does bulk work to be built: the Logger's record ring takes its
  // storage on the first push and the LoadBalancer's hash ring is one
  // vector, so a per-point node or an eagerly filled ring fails here.
  EXPECT_LT(rack_allocations, 20u);
  EXPECT_LT(setup_allocations, 64u);
  EXPECT_LT(setup_bytes, 64u * 1024u);
}

TEST(SteadyStateAllocs, IdleRacksCostNothing) {
  constexpr std::size_t kRacks = 64;
  DatacenterSimulator::Options options;
  options.shards = kRacks;
  options.servers_total = 2 * kRacks;
  const TrafficSourceConfig traffic = steady_traffic();
  const std::size_t host = options.servers_total - 1;  // a slot on the last rack

  g_allocations.store(0);
  g_counting.store(true);
  DatacenterSimulator dc{options};
  const std::size_t chain = dc.add_chain(paper_figure1_chain(), traffic, 0);
  dc.add_chain(paper_figure1_chain(), traffic, 1);
  const bool leased = dc.commit_lease(chain, kMonitor, host);
  g_counting.store(false);
  const std::uint64_t setup_allocations = g_allocations.load();
  ASSERT_TRUE(leased);

  // Each rack's own objects (its device queues and kernel) take fewer
  // than twenty allocations here (1,128 on 64 racks, the fabric's merge
  // cursors included); nothing per rack may scale with a pool or mailbox
  // reservation.
  EXPECT_LT(setup_allocations, 20 * kRacks);

  dc.run(SimTime::milliseconds(20), SimTime::milliseconds(2), /*threads=*/2);
  const DatacenterReport report = dc.report();
  EXPECT_TRUE(report.fleet.conserved());
  EXPECT_GT(report.cross_rack_frames, 0u);
  EXPECT_GT(dc.rack(0).kernel().pool().capacity(), 0u);
  for (std::size_t r = 1; r < dc.num_racks(); ++r) {
    EXPECT_EQ(dc.rack(r).kernel().pool().capacity(), 0u) << "rack " << r;
  }
}

}  // namespace
}  // namespace pam
