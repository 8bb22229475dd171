// Controller tests: the closed loop of "periodically query load -> run PAM
// -> execute migration" on live simulations.

#include <gtest/gtest.h>

#include <memory>

#include "chain/chain_builder.hpp"
#include "control/controller.hpp"
#include "core/pam_policy.hpp"
#include "core/scale_in_policy.hpp"
#include "one_chain.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TrafficSourceConfig spiking_traffic(Gbps before, Gbps after, SimTime at,
                                    std::uint64_t seed = 5) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::step(before, after, at);
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = seed;
  return cfg;
}

ControllerOptions fast_controller() {
  ControllerOptions opts;
  opts.period = SimTime::milliseconds(5);
  opts.first_check = SimTime::milliseconds(5);
  return opts;
}

TEST(Controller, ResolvesOverloadWithPam) {
  OneChain one{paper_figure1_chain(),
               spiking_traffic(paper_baseline_rate(), paper_overload_rate(),
                               SimTime::milliseconds(40))};
  ChainSimulator& sim = one.sim();
  Controller controller{sim, std::make_unique<PamPolicy>(), fast_controller()};
  controller.arm();
  const auto report = one.run(SimTime::milliseconds(120), SimTime::milliseconds(5));

  EXPECT_EQ(controller.migrations_executed(), 1u);
  EXPECT_EQ(controller.engine().records()[0].nf_name, "Logger");
  EXPECT_EQ(sim.chain().location_of(2), Location::kCpu);
  EXPECT_FALSE(controller.scale_out_requested());
  EXPECT_TRUE(report.conserved());
  // Timeline recorded detection + plan + completion, typed.
  ASSERT_GE(controller.events().size(), 3u);
  EXPECT_EQ(controller.events()[0].kind, ControlEvent::Kind::kTriggered);
  EXPECT_NE(controller.events()[0].detail.find("overload detected"),
            std::string::npos);
  EXPECT_EQ(controller.events()[1].kind, ControlEvent::Kind::kPlanned);
  ASSERT_EQ(controller.events()[1].moved_nfs.size(), 1u);
  EXPECT_EQ(controller.events()[1].moved_nfs[0], "Logger");
  EXPECT_EQ(controller.events()[2].kind, ControlEvent::Kind::kMigrated);
}

TEST(Controller, QuietBelowTrigger) {
  OneChain one{paper_figure1_chain(), spiking_traffic(1.0_gbps, 1.0_gbps, SimTime::zero())};
  ChainSimulator& sim = one.sim();
  Controller controller{sim, std::make_unique<PamPolicy>(), fast_controller()};
  controller.arm();
  (void)one.run(SimTime::milliseconds(80), SimTime::milliseconds(5));
  EXPECT_EQ(controller.migrations_executed(), 0u);
  EXPECT_TRUE(controller.events().empty());
}

TEST(Controller, TriggerUtilizationIsConfigurable) {
  OneChain one{paper_figure1_chain(), spiking_traffic(1.2_gbps, 1.2_gbps, SimTime::zero())};
  ChainSimulator& sim = one.sim();
  ControllerOptions opts = fast_controller();
  opts.trigger_utilization = 0.6;  // S sits at ~0.795 -> fires
  Controller controller{sim, std::make_unique<PamPolicy>(PamOptions{0.6, 64}), opts};
  controller.arm();
  (void)one.run(SimTime::milliseconds(80), SimTime::milliseconds(5));
  EXPECT_GE(controller.migrations_executed(), 1u);
}

TEST(Controller, RequestsScaleOutWhenInfeasible) {
  // Logger-only SmartNIC + saturated CPU: PAM cannot help.
  const auto chain = ChainBuilder{"hot"}
                         .add(NfType::kLogger, "log", Location::kSmartNic, 1.0)
                         .add(NfType::kDpi, "heavy", Location::kCpu)
                         .build();
  OneChain one{chain, spiking_traffic(2.9_gbps, 2.9_gbps, SimTime::zero())};
  ChainSimulator& sim = one.sim();
  Controller controller{sim, std::make_unique<PamPolicy>(), fast_controller()};
  controller.arm();
  (void)one.run(SimTime::milliseconds(60), SimTime::milliseconds(5));
  EXPECT_TRUE(controller.scale_out_requested());
  EXPECT_EQ(controller.migrations_executed(), 0u);
  // The request lands exactly once in the typed event log.
  std::size_t scale_out_events = 0;
  for (const auto& event : controller.events()) {
    scale_out_events += event.kind == ControlEvent::Kind::kScaleOut ? 1 : 0;
  }
  EXPECT_EQ(scale_out_events, 1u);
}

TEST(Controller, CooldownPreventsBackToBackMigrations) {
  OneChain one{paper_figure1_chain(),
               spiking_traffic(paper_overload_rate(), paper_overload_rate(),
                               SimTime::zero())};
  ChainSimulator& sim = one.sim();
  ControllerOptions opts = fast_controller();
  opts.cooldown = SimTime::seconds(10);  // effectively forever
  Controller controller{sim, std::make_unique<PamPolicy>(), opts};
  controller.arm();
  (void)one.run(SimTime::milliseconds(150), SimTime::milliseconds(5));
  // One migration resolves it; even if load were still high, the cooldown
  // would hold further action.
  EXPECT_EQ(controller.migrations_executed(), 1u);
}

TEST(Controller, ScaleInReturnsNfAfterSpike) {
  // Spike then calm: PAM pushes the Logger aside, scale-in brings it back.
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::schedule({
      {SimTime::zero(), paper_overload_rate()},
      {SimTime::milliseconds(60), 0.4_gbps},
  });
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = 21;
  OneChain one{paper_figure1_chain(), cfg};
  ChainSimulator& sim = one.sim();
  ControllerOptions opts = fast_controller();
  opts.cooldown = SimTime::milliseconds(10);
  Controller controller{sim, std::make_unique<PamPolicy>(), opts};
  controller.set_scale_in_policy(std::make_unique<ScaleInPolicy>(), 0.4);
  controller.arm();
  (void)one.run(SimTime::milliseconds(150), SimTime::milliseconds(5));

  // At least one forward and one reverse migration happened…
  bool pushed = false;
  bool pulled = false;
  for (const auto& record : controller.engine().records()) {
    pushed |= record.nf_name == "Logger" && record.to == Location::kCpu;
    pulled |= record.to == Location::kSmartNic;
  }
  EXPECT_TRUE(pushed);
  EXPECT_TRUE(pulled);
  // …and the Logger ends up back on the SmartNIC.
  EXPECT_EQ(sim.chain().location_of(2), Location::kSmartNic);
}

TEST(Controller, NoScaleInWithoutPolicy) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(0.3_gbps);
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = 22;
  // Start from the pushed-aside placement.
  auto chain = paper_figure1_chain();
  chain.set_location(2, Location::kCpu);
  OneChain one{chain, cfg};
  ChainSimulator& sim = one.sim();
  // Far below the trigger, but no scale-in policy installed.
  Controller controller{sim, std::make_unique<PamPolicy>(), fast_controller()};
  controller.arm();
  (void)one.run(SimTime::milliseconds(60), SimTime::milliseconds(5));
  EXPECT_EQ(controller.migrations_executed(), 0u);
  EXPECT_EQ(sim.chain().location_of(2), Location::kCpu);
}

TEST(Controller, EventTimesAreMonotone) {
  OneChain one{paper_figure1_chain(),
               spiking_traffic(paper_baseline_rate(), paper_overload_rate(),
                               SimTime::milliseconds(30))};
  ChainSimulator& sim = one.sim();
  Controller controller{sim, std::make_unique<PamPolicy>(), fast_controller()};
  controller.arm();
  (void)one.run(SimTime::milliseconds(100), SimTime::milliseconds(5));
  SimTime prev = SimTime::zero();
  for (const auto& event : controller.events()) {
    EXPECT_GE(event.at, prev);
    prev = event.at;
  }
}

}  // namespace
}  // namespace pam
