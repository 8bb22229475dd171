// The per-packet datapath allocates nothing in steady state.
//
// This binary replaces the global operator new with a counting one (each
// test_*.cpp links into its own executable, so no other test sees it).  A
// standalone ChainSimulator runs the Figure-1 chain until its packet pool,
// FCFS rings, ingress window and latency reservoirs have all reached their
// high-water marks; then a window of EventQueue::run_one() calls — tens of
// thousands of packet hops, metered, with drop-tail losses in the overload
// case — must make zero heap allocations.
//
// Two more cases move the same chain's Monitor off its home slot, so every
// packet also makes two extra hops: to another slot of the same rack over
// the rack fabric, or to a lease on another rack over the shard fabric.
// The window there is a run of whole epochs, opened and closed from the
// barrier hook.
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
#include "sim/chain_simulator.hpp"
#include "sim/datacenter_simulator.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

class SteadyStateAllocs : public ::testing::TestWithParam<double> {};

TEST_P(SteadyStateAllocs, PacketHopsDoNotAllocate) {
  const double gbps = GetParam();
  TrafficSourceConfig traffic;
  traffic.rate = RateProfile::constant(Gbps{gbps});
  traffic.sizes = PacketSizeDistribution::fixed(512);
  traffic.seed = 2018;
  Server server = Server::paper_testbed();
  ChainSimulator sim{paper_figure1_chain(), server, traffic};

  // By 300 ms more than 65,536 packets have arrived at either rate: the
  // ingress window is at its cap and every LatencyRecorder reservoir is
  // full, so neither grows any more.
  const SimTime warmup = SimTime::milliseconds(10);
  const SimTime window_start = SimTime::milliseconds(300);
  const SimTime window_end = SimTime::milliseconds(350);
  const SimTime duration = SimTime::milliseconds(400);
  sim.start();
  SimulationKernel& kernel = sim.kernel();
  kernel.arm(duration, warmup);
  kernel.advance_until(window_start);
  const std::uint64_t injected_before = sim.build_report().injected;

  EventQueue& queue = kernel.queue();
  const std::uint64_t executed_before = queue.executed();
  g_allocations.store(0);
  g_counting.store(true);
  while (queue.now() < window_end && queue.run_one()) {
  }
  g_counting.store(false);
  const std::uint64_t allocations = g_allocations.load();
  const std::uint64_t events = queue.executed() - executed_before;
  const std::uint64_t injected = sim.build_report().injected - injected_before;

  kernel.advance_until(duration);
  kernel.begin_drain();
  while (queue.run_one()) {
  }
  const SimReport report = sim.build_report();

  EXPECT_EQ(allocations, 0u) << "over " << events << " events";
  EXPECT_GT(events, 100'000u);
  EXPECT_GT(injected, 10'000u);
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

/// A datacenter run whose steady-state window is counted from the barrier
/// hook: allocations, events on every rack and packets `chain` injected
/// over the epochs in [300 ms, 350 ms) of a 400 ms run.  Same warm-up
/// reasoning as above: by 300 ms every reservoir, ring and mailbox has
/// reached its high-water mark.
struct WindowedRun {
  DatacenterReport report;
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
  out.report = dc.run(SimTime::milliseconds(400), SimTime::milliseconds(10), threads);
  return out;
}

TrafficSourceConfig steady_traffic() {
  TrafficSourceConfig traffic;
  traffic.rate = RateProfile::constant(Gbps{1.0});
  traffic.sizes = PacketSizeDistribution::fixed(512);
  traffic.seed = 2018;
  return traffic;
}

constexpr std::size_t kMonitor = 1;  ///< the Figure-1 chain's second node

TEST(SteadyStateAllocs, CrossRackLeaseDoesNotAllocate) {
  DatacenterSimulator::Options options;
  options.shards = 2;
  options.servers_total = 2;
  DatacenterSimulator dc{options};
  const std::size_t chain = dc.add_chain(paper_figure1_chain(), steady_traffic(), 0);
  ASSERT_TRUE(dc.commit_lease(chain, kMonitor, 1));

  const WindowedRun run = run_with_window(dc, chain, /*threads=*/2);
  EXPECT_EQ(run.allocations, 0u) << "over " << run.events << " events, "
                                 << run.injected << " packets";
  EXPECT_GT(run.injected, 10'000u);
  EXPECT_GT(run.events, 100'000u);
  EXPECT_GE(run.report.cross_rack_frames, 2 * run.injected);
  EXPECT_TRUE(run.report.fleet.conserved());
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
  EXPECT_EQ(run.allocations, 0u) << "over " << run.events << " events, "
                                 << run.injected << " packets";
  EXPECT_GT(run.injected, 10'000u);
  EXPECT_GT(run.events, 100'000u);
  EXPECT_GE(run.report.fleet.inter_server_hops, 2 * run.injected);
  EXPECT_TRUE(run.report.fleet.conserved());
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

  const DatacenterReport report =
      dc.run(SimTime::milliseconds(20), SimTime::milliseconds(2), /*threads=*/2);
  EXPECT_TRUE(report.fleet.conserved());
  EXPECT_GT(report.cross_rack_frames, 0u);
  EXPECT_GT(dc.rack(0).kernel().pool().capacity(), 0u);
  for (std::size_t r = 1; r < dc.num_racks(); ++r) {
    EXPECT_EQ(dc.rack(r).kernel().pool().capacity(), 0u) << "rack " << r;
  }
}

}  // namespace
}  // namespace pam
