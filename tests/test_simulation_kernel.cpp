// SimulationKernel unit tests: measurement-window bookkeeping, the drain
// contract, and the shared horizon-bounded schedule_periodic implementation
// that ChainSimulator and FleetController ride on.

#include <gtest/gtest.h>

#include "sim/simulation_kernel.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TEST(SimulationKernel, MeteringWindowFollowsWarmupAndHorizon) {
  SimulationKernel kernel;
  std::vector<std::pair<double, bool>> observed;
  for (const double at_ms : {1.0, 5.0, 10.0, 19.0}) {
    kernel.schedule_at(SimTime::milliseconds(at_ms), [&, at_ms] {
      observed.emplace_back(at_ms, kernel.metering());
    });
  }
  kernel.run(SimTime::milliseconds(20), SimTime::milliseconds(5));

  ASSERT_EQ(observed.size(), 4u);
  EXPECT_FALSE(observed[0].second);  // 1 ms: before warmup
  EXPECT_TRUE(observed[1].second);   // 5 ms: window opens at warmup
  EXPECT_TRUE(observed[2].second);
  EXPECT_TRUE(observed[3].second);
}

TEST(SimulationKernel, DrainRunsQueuedWorkPastHorizonUnmetered) {
  SimulationKernel kernel;
  bool drained = false;
  bool metered_during_drain = true;
  kernel.schedule_at(SimTime::milliseconds(30), [&] {
    drained = true;
    metered_during_drain = kernel.metering();
    EXPECT_TRUE(kernel.stopped());
  });
  kernel.run(SimTime::milliseconds(20), SimTime::milliseconds(5));
  EXPECT_TRUE(drained);
  EXPECT_FALSE(metered_during_drain);
  EXPECT_TRUE(kernel.queue().empty());
}

TEST(SimulationKernel, PeriodicStopsAtHorizon) {
  SimulationKernel kernel;
  int fired = 0;
  kernel.schedule_periodic(SimTime::milliseconds(2), SimTime::milliseconds(2),
                           [&] { ++fired; });
  kernel.run(SimTime::milliseconds(11), SimTime::milliseconds(1));
  // Fires at 2,4,6,8,10; the 12 ms re-arm lands past the horizon and is
  // suppressed during the drain.
  EXPECT_EQ(fired, 5);
}

TEST(SimulationKernel, PeriodicCallbackKeepsStateAcrossFirings) {
  SimulationKernel kernel;
  std::vector<int> seen;
  kernel.schedule_periodic(SimTime::milliseconds(1), SimTime::milliseconds(1),
                           [&seen, n = 0]() mutable { seen.push_back(n++); });
  kernel.run(SimTime::milliseconds(4.5), SimTime::milliseconds(1));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulationKernel, PoolIsSharedAndLeakChecked) {
  SimulationKernel kernel;
  // The pool starts empty and grows on the first acquire.
  EXPECT_EQ(kernel.pool().capacity(), 0u);
  auto p = kernel.pool().acquire(128);
  EXPECT_TRUE(p);
  EXPECT_GE(kernel.pool().capacity(), 1u);
  EXPECT_EQ(kernel.pool().in_use(), 1u);
  p = PacketPtr{};
  EXPECT_EQ(kernel.pool().in_use(), 0u);
}

}  // namespace
}  // namespace pam
