// Rack controller tests: the closed loop of "periodically query load -> run
// PAM -> execute migration" on live simulations, run by the FleetController
// of a one-slot rack (OneChain), as timeline scenarios run it.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "control/fleet_controller.hpp"
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

FleetControllerOptions fast_controller() {
  FleetControllerOptions opts;
  opts.period = SimTime::milliseconds(5);
  opts.first_check = SimTime::milliseconds(5);
  return opts;
}

std::size_t count_kind(const std::vector<ControlEvent>& events,
                       ControlEvent::Kind kind) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const ControlEvent& event) { return event.kind == kind; }));
}

TEST(RackController, ResolvesOverloadWithPam) {
  OneChain one{paper_figure1_chain(),
               spiking_traffic(paper_baseline_rate(), paper_overload_rate(),
                               SimTime::milliseconds(40))};
  ChainSimulator& sim = one.sim();
  FleetController controller{one.dc().rack(0), std::make_unique<PamPolicy>(),
                             fast_controller()};
  controller.arm();
  const auto report = one.run(SimTime::milliseconds(120), SimTime::milliseconds(5));

  EXPECT_EQ(controller.migrations_executed(), 1u);
  EXPECT_EQ(controller.engine(0).records()[0].nf_name, "Logger");
  EXPECT_EQ(sim.chain().location_of(2), Location::kCpu);
  EXPECT_EQ(count_kind(controller.events(), ControlEvent::Kind::kScaleOut), 0u);
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

TEST(RackController, QuietBelowTrigger) {
  OneChain one{paper_figure1_chain(), spiking_traffic(1.0_gbps, 1.0_gbps, SimTime::zero())};
  FleetController controller{one.dc().rack(0), std::make_unique<PamPolicy>(),
                             fast_controller()};
  controller.arm();
  (void)one.run(SimTime::milliseconds(80), SimTime::milliseconds(5));
  EXPECT_EQ(controller.migrations_executed(), 0u);
  EXPECT_TRUE(controller.events().empty());
}

TEST(RackController, TriggerUtilizationIsConfigurable) {
  OneChain one{paper_figure1_chain(), spiking_traffic(1.2_gbps, 1.2_gbps, SimTime::zero())};
  FleetControllerOptions opts = fast_controller();
  opts.trigger_utilization = 0.6;  // S sits at ~0.795 -> fires
  FleetController controller{one.dc().rack(0),
                             std::make_unique<PamPolicy>(PamOptions{0.6, 64}), opts};
  controller.arm();
  (void)one.run(SimTime::milliseconds(80), SimTime::milliseconds(5));
  EXPECT_GE(controller.migrations_executed(), 1u);
}

TEST(RackController, RequestsScaleOutWhenInfeasible) {
  // Logger-only SmartNIC + saturated CPU: PAM cannot help.
  const auto chain = ChainBuilder{"hot"}
                         .add(NfType::kLogger, "log", Location::kSmartNic, 1.0)
                         .add(NfType::kDpi, "heavy", Location::kCpu)
                         .build();
  OneChain one{chain, spiking_traffic(2.9_gbps, 2.9_gbps, SimTime::zero())};
  FleetController controller{one.dc().rack(0), std::make_unique<PamPolicy>(),
                             fast_controller()};
  controller.arm();
  (void)one.run(SimTime::milliseconds(60), SimTime::milliseconds(5));
  EXPECT_EQ(controller.migrations_executed(), 0u);
  // One slot has nowhere to push a border NF: the request lands exactly
  // once in the typed event log, and nothing is reported infeasible.
  EXPECT_EQ(count_kind(controller.events(), ControlEvent::Kind::kScaleOut), 1u);
  EXPECT_EQ(count_kind(controller.events(), ControlEvent::Kind::kInfeasible), 0u);
  for (const auto& event : controller.events()) {
    if (event.kind == ControlEvent::Kind::kScaleOut) {
      EXPECT_NE(event.detail.find("scale-out requested"), std::string::npos);
    }
  }
}

TEST(RackController, CooldownPreventsBackToBackMigrations) {
  OneChain one{paper_figure1_chain(),
               spiking_traffic(paper_overload_rate(), paper_overload_rate(),
                               SimTime::zero())};
  FleetControllerOptions opts = fast_controller();
  opts.cooldown = SimTime::seconds(10);  // effectively forever
  FleetController controller{one.dc().rack(0), std::make_unique<PamPolicy>(), opts};
  controller.arm();
  (void)one.run(SimTime::milliseconds(150), SimTime::milliseconds(5));
  // One migration resolves it; even if load were still high, the cooldown
  // would hold further action.
  EXPECT_EQ(controller.migrations_executed(), 1u);
}

TEST(RackController, ScaleInReturnsNfAfterSpike) {
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
  FleetControllerOptions opts = fast_controller();
  opts.cooldown = SimTime::milliseconds(10);
  FleetController controller{one.dc().rack(0), std::make_unique<PamPolicy>(), opts};
  controller.plane().set_scale_in_policy(std::make_unique<ScaleInPolicy>(), 0.4);
  controller.arm();
  (void)one.run(SimTime::milliseconds(150), SimTime::milliseconds(5));

  // At least one forward and one reverse migration happened…
  bool pushed = false;
  bool pulled = false;
  for (const auto& record : controller.engine(0).records()) {
    pushed |= record.nf_name == "Logger" && record.to == Location::kCpu;
    pulled |= record.to == Location::kSmartNic;
  }
  EXPECT_TRUE(pushed);
  EXPECT_TRUE(pulled);
  // …and the Logger ends up back on the SmartNIC.
  EXPECT_EQ(sim.chain().location_of(2), Location::kSmartNic);
}

TEST(RackController, NoScaleInWithoutPolicy) {
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
  FleetController controller{one.dc().rack(0), std::make_unique<PamPolicy>(),
                             fast_controller()};
  controller.arm();
  (void)one.run(SimTime::milliseconds(60), SimTime::milliseconds(5));
  EXPECT_EQ(controller.migrations_executed(), 0u);
  EXPECT_EQ(sim.chain().location_of(2), Location::kCpu);
}

TEST(RackController, OneSlotRackSensesChainDemandOnly) {
  // A slot at half speed runs hot on its live SmartNIC load while the
  // chain's analytic demand (the model knows nothing of the fade) stays
  // under the trigger.  A one-slot rack has no other slot to relieve, so
  // only demand triggers it; the same chain on a two-slot rack triggers on
  // the hot slot.
  const Gbps rate = 1.0_gbps;
  FleetControllerOptions opts = fast_controller();
  opts.trigger_utilization = 0.9;

  OneChain one{paper_figure1_chain(), spiking_traffic(rate, rate, SimTime::zero())};
  ClusterSimulator& one_slot = one.dc().rack(0);
  const ChainAnalyzer analyzer{one_slot.server()};
  ASSERT_LT(analyzer.utilization(paper_figure1_chain(), rate).smartnic,
            opts.trigger_utilization);
  one_slot.set_slot_speed(0, 0.5);
  FleetController alone{one_slot, std::make_unique<PamPolicy>(), opts};
  alone.arm();
  (void)one.run(SimTime::milliseconds(60), SimTime::milliseconds(5));
  EXPECT_GE(one_slot.server_nic_load(0), opts.trigger_utilization);
  EXPECT_EQ(count_kind(alone.events(), ControlEvent::Kind::kTriggered), 0u);

  DatacenterSimulator::Options two_slots;
  two_slots.servers_total = 2;
  DatacenterSimulator dc{two_slots};
  dc.add_chain(paper_figure1_chain(), spiking_traffic(rate, rate, SimTime::zero()), 0);
  dc.rack(0).set_slot_speed(0, 0.5);
  FleetController shared{dc.rack(0), std::make_unique<PamPolicy>(), opts};
  shared.arm();
  dc.run(SimTime::milliseconds(60), SimTime::milliseconds(5), /*threads=*/1);
  EXPECT_GE(count_kind(shared.events(), ControlEvent::Kind::kTriggered), 1u);
}

TEST(RackController, EventTimesAreMonotone) {
  OneChain one{paper_figure1_chain(),
               spiking_traffic(paper_baseline_rate(), paper_overload_rate(),
                               SimTime::milliseconds(30))};
  FleetController controller{one.dc().rack(0), std::make_unique<PamPolicy>(),
                             fast_controller()};
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
