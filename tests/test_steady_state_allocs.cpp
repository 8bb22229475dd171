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

}  // namespace
}  // namespace pam
