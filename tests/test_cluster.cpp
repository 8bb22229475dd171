// One-rack fleet + FleetController integration tests: fleet-wide packet
// conservation and pool drain, cross-server scale-out mechanics, fleet
// aggregation, and bit-identical JSON across identical cluster runs.
// Every rack runs on a one-rack DatacenterSimulator, the path every
// `shards = 1` scenario takes.  pick_border_move, the target scan the rack
// and datacenter tiers share, is tested directly at the end.

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chain/chain_builder.hpp"
#include "control/fleet_controller.hpp"
#include "core/pam_policy.hpp"
#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_runner.hpp"
#include "sim/datacenter_simulator.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TrafficSourceConfig traffic(double gbps, std::uint64_t seed) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(Gbps{gbps});
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = seed;
  return cfg;
}

/// One rack of `servers` slots.
DatacenterSimulator::Options one_rack(std::size_t servers) {
  DatacenterSimulator::Options options;
  options.shards = 1;
  options.servers_total = servers;
  return options;
}

ServiceChain hot_chain() {
  // SmartNIC past saturation at 2.8 Gbps while the DPI pins the CPU:
  // push-aside migration is infeasible, forcing the cross-server path.
  return ChainBuilder{"hot"}
      .add(NfType::kFirewall, "fw", Location::kSmartNic)
      .add(NfType::kMonitor, "mon", Location::kSmartNic)
      .add(NfType::kDpi, "dpi", Location::kCpu)
      .build();
}

TEST(Cluster, ConservationAndPoolDrainAcrossServers) {
  DatacenterSimulator dc{one_rack(3)};
  ClusterSimulator& cluster = dc.rack(0);
  dc.add_chain(paper_figure1_chain(), traffic(1.3, 1), 0);
  dc.add_chain(paper_figure1_chain(), traffic(1.0, 2), 1);
  dc.add_chain(paper_figure1_chain(), traffic(0.7, 3), 2);

  dc.run(SimTime::milliseconds(30), SimTime::milliseconds(5), /*threads=*/1);
  const DatacenterReport report = dc.report();

  EXPECT_GT(report.fleet.injected, 0u);
  EXPECT_TRUE(report.fleet.conserved());
  EXPECT_EQ(report.fleet.in_flight_at_end, 0u);
  for (const SimReport& chain : report.per_chain) {
    EXPECT_TRUE(chain.conserved());
  }
  // The shared mempool is fully drained once every server's chains finish.
  EXPECT_EQ(cluster.kernel().pool().in_use(), 0u);
}

TEST(Cluster, FleetTotalsAreTheSumOfChains) {
  DatacenterSimulator dc{one_rack(2)};
  dc.add_chain(paper_figure1_chain(), traffic(1.2, 7), 0);
  dc.add_chain(paper_figure1_chain(), traffic(0.9, 8), 1);
  dc.run(SimTime::milliseconds(25), SimTime::milliseconds(5), /*threads=*/1);
  const DatacenterReport report = dc.report();

  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::size_t latency_samples = 0;
  for (const SimReport& chain : report.per_chain) {
    injected += chain.injected;
    delivered += chain.delivered;
    latency_samples += chain.latency.count();
  }
  EXPECT_EQ(report.fleet.injected, injected);
  EXPECT_EQ(report.fleet.delivered, delivered);
  EXPECT_EQ(report.fleet.latency.count(), latency_samples);
  EXPECT_EQ(report.per_server.size(), 2u);
  EXPECT_EQ(report.per_server[0].chains_homed, 1u);
  EXPECT_EQ(report.per_server[1].chains_homed, 1u);
}

TEST(Cluster, FleetControllerMovesBorderNfAcrossServers) {
  DatacenterSimulator dc{one_rack(2)};
  ClusterSimulator& cluster = dc.rack(0);
  const std::size_t hot = dc.add_chain(hot_chain(), traffic(2.8, 11), 0);
  FleetControllerOptions opts;
  opts.first_check = SimTime::milliseconds(5);
  opts.period = SimTime::milliseconds(5);
  FleetController fleet{cluster, std::make_unique<PamPolicy>(), opts};
  fleet.arm();

  dc.run(SimTime::milliseconds(40), SimTime::milliseconds(5), /*threads=*/1);
  const DatacenterReport report = dc.report();

  EXPECT_GE(fleet.scale_out_moves(), 1u);
  EXPECT_EQ(cluster.chain_sim(hot).nodes_off_home(), 1u);
  // The moved Monitor is the middle node: packets hop to server 1 and back.
  EXPECT_EQ(cluster.chain_sim(hot).node_server(1), 1u);
  EXPECT_GT(report.fleet.inter_server_hops, 0u);
  EXPECT_GT(report.per_server[1].smartnic_utilization, 0.2);
  // Loss-freedom of the move itself: everything still accounted for.
  EXPECT_TRUE(report.fleet.conserved());
  EXPECT_EQ(cluster.kernel().pool().in_use(), 0u);
  EXPECT_FALSE(fleet.events().empty());
}

TEST(Cluster, CoHomedChainsSaturatingASlotTriggerScaleOut) {
  // Two chains each at ~0.56 analytic SmartNIC utilisation share slot 0:
  // no single chain crosses the trigger, but the shared NIC saturates.
  // The live-slot-load signal must still drive a cross-server move.
  DatacenterSimulator dc{one_rack(2)};
  ClusterSimulator& cluster = dc.rack(0);
  const auto monitor_chain = [](const char* name, const char* nf) {
    return ChainBuilder{name}
        .add(NfType::kMonitor, nf, Location::kSmartNic)
        .build();
  };
  dc.add_chain(monitor_chain("a", "monA"), traffic(1.8, 21), 0);
  dc.add_chain(monitor_chain("b", "monB"), traffic(1.8, 22), 0);

  FleetControllerOptions opts;
  opts.first_check = SimTime::milliseconds(5);
  opts.period = SimTime::milliseconds(5);
  opts.trigger_utilization = 0.95;
  FleetController fleet{cluster, std::make_unique<PamPolicy>(), opts};
  fleet.arm();

  dc.run(SimTime::milliseconds(40), SimTime::milliseconds(5), /*threads=*/1);
  const DatacenterReport report = dc.report();

  EXPECT_GE(fleet.scale_out_moves(), 1u);
  EXPECT_TRUE(report.fleet.conserved());
  // One of the two Monitors now runs on the spare slot.
  const std::size_t off_home = cluster.chain_sim(0).nodes_off_home() +
                               cluster.chain_sim(1).nodes_off_home();
  EXPECT_GE(off_home, 1u);
}

TEST(Cluster, NoRebalanceWithoutController) {
  DatacenterSimulator dc{one_rack(2)};
  ClusterSimulator& cluster = dc.rack(0);
  const std::size_t hot = dc.add_chain(hot_chain(), traffic(2.8, 11), 0);
  dc.run(SimTime::milliseconds(30), SimTime::milliseconds(5), /*threads=*/1);
  const DatacenterReport report = dc.report();
  EXPECT_EQ(cluster.chain_sim(hot).nodes_off_home(), 0u);
  EXPECT_EQ(report.fleet.inter_server_hops, 0u);
  EXPECT_TRUE(report.fleet.conserved());
}

TEST(Cluster, ServerFailureEvacuatesResidentNfsLossFree) {
  // The app chain is homed on server 1 with one NF per device.  When the
  // slot dies mid-run the fleet controller must move both NFs to the
  // least-loaded surviving slot without losing a packet, keeping each NF's
  // device placement (evacuation relocates, it does not re-place).
  DatacenterSimulator dc{one_rack(3)};
  ClusterSimulator& cluster = dc.rack(0);
  dc.add_chain(ChainBuilder{"busy"}
                   .add(NfType::kFirewall, "fw0", Location::kSmartNic)
                   .build(),
               traffic(1.0, 31), 0);
  const std::size_t app =
      dc.add_chain(ChainBuilder{"app"}
                       .add(NfType::kFirewall, "fw1", Location::kSmartNic)
                       .add(NfType::kDpi, "dpi1", Location::kCpu)
                       .build(),
                   traffic(1.0, 32), 1);

  FleetControllerOptions opts;
  opts.first_check = SimTime::milliseconds(5);
  opts.period = SimTime::milliseconds(5);
  opts.trigger_utilization = 2.0;  // quiet loop: failure handling only
  FleetController fleet{cluster, std::make_unique<PamPolicy>(), opts};
  fleet.arm();
  dc.schedule_on_rack(0, SimTime::milliseconds(10), [&] {
    cluster.fail_server(1);
    fleet.on_server_failed(1);
  });

  dc.run(SimTime::milliseconds(30), SimTime::milliseconds(2), /*threads=*/1);
  const DatacenterReport report = dc.report();

  EXPECT_EQ(fleet.evacuations(), 2u);
  EXPECT_EQ(fleet.scale_out_moves(), 0u);
  std::size_t evacuated_events = 0;
  for (const ControlEvent& event : fleet.events()) {
    evacuated_events += event.kind == ControlEvent::Kind::kEvacuated ? 1 : 0;
  }
  EXPECT_EQ(evacuated_events, 2u);
  // Server 2 is idle, server 0 is busy: both NFs land on slot 2, keeping
  // their SmartNIC/CPU split.
  const ChainSimulator& sim = cluster.chain_sim(app);
  EXPECT_EQ(sim.node_server(0), 2u);
  EXPECT_EQ(sim.node_server(1), 2u);
  EXPECT_EQ(sim.chain().location_of(0), Location::kSmartNic);
  EXPECT_EQ(sim.chain().location_of(1), Location::kCpu);
  // Loss-freedom across the failure episode.
  EXPECT_TRUE(report.fleet.conserved());
  EXPECT_EQ(cluster.kernel().pool().in_use(), 0u);
}

TEST(Cluster, DeadTargetAbortsInFlightMoveLossFree) {
  // The hot chain's scale-out decides on server 1 at the 5 ms check and the
  // transfer is in flight for 1 ms.  Killing server 1 at 5.5 ms forces the
  // abort path: resume in place, flush the buffered packets, no move.
  DatacenterSimulator dc{one_rack(2)};
  ClusterSimulator& cluster = dc.rack(0);
  const std::size_t hot = dc.add_chain(hot_chain(), traffic(2.8, 11), 0);
  FleetControllerOptions opts;
  opts.first_check = SimTime::milliseconds(5);
  opts.period = SimTime::milliseconds(5);
  FleetController fleet{cluster, std::make_unique<PamPolicy>(), opts};
  fleet.arm();
  dc.schedule_on_rack(0, SimTime::milliseconds(5.5), [&] {
    cluster.fail_server(1);
    fleet.on_server_failed(1);
  });

  dc.run(SimTime::milliseconds(30), SimTime::milliseconds(2), /*threads=*/1);
  const DatacenterReport report = dc.report();

  EXPECT_EQ(fleet.scale_out_moves(), 0u);
  EXPECT_EQ(fleet.evacuations(), 0u);
  EXPECT_EQ(cluster.chain_sim(hot).nodes_off_home(), 0u);
  bool aborted = false;
  for (const ControlEvent& event : fleet.events()) {
    if (event.kind == ControlEvent::Kind::kInfeasible &&
        event.detail.find("aborted") != std::string::npos) {
      aborted = true;
      EXPECT_NE(event.detail.find("target server 1 died"), std::string::npos)
          << event.detail;
    }
  }
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(report.fleet.conserved());
  EXPECT_EQ(cluster.kernel().pool().in_use(), 0u);
}

TEST(Cluster, ChurnWindowBoundsInjectionAndConserves) {
  // A tenant active only inside [10 ms, 20 ms) of a 30 ms run injects a
  // strict subset of what a full-run tenant does, and its departure drains
  // cleanly (no packets stranded in flight).
  std::uint64_t full_injected = 0;
  {
    DatacenterSimulator dc{one_rack(1)};
    dc.add_chain(paper_figure1_chain(), traffic(1.0, 41), 0);
    dc.run(SimTime::milliseconds(30), SimTime::zero(), /*threads=*/1);
    const DatacenterReport report = dc.report();
    full_injected = report.fleet.injected;
    EXPECT_TRUE(report.fleet.conserved());
  }
  DatacenterSimulator dc{one_rack(1)};
  ClusterSimulator& cluster = dc.rack(0);
  const std::size_t c = dc.add_chain(paper_figure1_chain(), traffic(1.0, 41), 0);
  cluster.chain_sim(c).set_active_window(SimTime::milliseconds(10),
                                         SimTime::milliseconds(20));
  dc.run(SimTime::milliseconds(30), SimTime::zero(), /*threads=*/1);
  const DatacenterReport report = dc.report();
  EXPECT_GT(report.fleet.injected, 0u);
  EXPECT_LT(report.fleet.injected, full_injected);
  EXPECT_TRUE(report.fleet.conserved());
  EXPECT_EQ(report.fleet.in_flight_at_end, 0u);
  EXPECT_EQ(cluster.kernel().pool().in_use(), 0u);
}

constexpr const char* kClusterScn = R"(
[scenario]
name = cluster-test
kind = cluster
duration_ms = 30
warmup_ms = 5
seed = 3

[traffic]
arrival = cbr
sizes = fixed 512

[chain]
name = hot
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8
server = 0

[chain]
name = calm
spec = wire | S:Firewall | wire
offered_gbps = 0.4
server = 1

[cluster]
servers = 2
rebalance = on
target_max_load = 0.95
first_check_ms = 5
period_ms = 5
)";

std::string run_to_json(const ScenarioSpec& spec) {
  const ScenarioRunner runner;
  auto result = runner.run(spec);
  EXPECT_TRUE(result) << (result ? std::string{} : result.error().what());
  std::ostringstream out;
  write_metrics_json(result.value(), out);
  return out.str();
}

TEST(Cluster, IdenticalRunsProduceBitIdenticalJson) {
  auto spec = ScenarioSpec::parse(kClusterScn, "cluster-test");
  ASSERT_TRUE(spec) << spec.error().what();
  const std::string a = run_to_json(spec.value());
  const std::string b = run_to_json(spec.value());
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The scale-out event must be visible in the metrics.
  EXPECT_NE(a.find("\"scale_out_moves\": 1"), std::string::npos) << a;
  EXPECT_NE(a.find("\"conserved\": true"), std::string::npos);
}

// --- pick_border_move: the target scan scale-out and evacuation share ----

/// A chain of SmartNIC NFs with 10 Gbps CPU capacity and the given SmartNIC
/// capacities, so at 1 Gbps offered node i adds 1/nic_gbps[i] to a slot.
ServiceChain border_chain(std::initializer_list<double> nic_gbps) {
  ServiceChain chain{"borders"};
  for (const double nic : nic_gbps) {
    NfSpec spec;
    spec.name = "nf" + std::to_string(chain.size());
    spec.capacity = CapacityProfile{Gbps{nic}, Gbps{10.0}};
    chain.add_node(std::move(spec), Location::kSmartNic);
  }
  return chain;
}

/// pick_border_move at `offered` (default 1 Gbps) under a `ceiling` (default
/// 0.9), over a fixed table of slot loads (nullopt: the caller excludes that
/// slot).
std::optional<BorderMove> pick(const ServiceChain& chain,
                               const std::vector<std::size_t>& candidates,
                               const std::vector<std::optional<UtilizationReport>>& slots,
                               double ceiling = 0.9, Gbps offered = Gbps{1.0}) {
  return pick_border_move(chain, candidates, offered, ceiling, slots.size(),
                          [&](std::size_t s) { return slots.at(s); });
}

TEST(PickBorderMove, LeastLoadedFittingSlotWins) {
  const ServiceChain chain = border_chain({2.0});  // adds 0.5
  // Slot 1 is the least loaded but 0.42 + 0.5 overshoots the ceiling; slot
  // 2 (load 0.5) beats slot 0 (load 0.6) and both fit.
  const auto move = pick(chain, {0}, {UtilizationReport{0.1, 0.6}, UtilizationReport{0.42, 0.0},
                                      UtilizationReport{0.1, 0.5}});
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->node, 0u);
  EXPECT_EQ(move->slot, 2u);
  EXPECT_DOUBLE_EQ(move->projected, 0.6);
}

TEST(PickBorderMove, ExcludedSlotsAreSkipped) {
  const ServiceChain chain = border_chain({10.0});
  const auto move =
      pick(chain, {0}, {std::nullopt, UtilizationReport{0.3, 0.0}, std::nullopt});
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->slot, 1u);
}

TEST(PickBorderMove, EqualLoadGoesToTheLowestSlot) {
  const ServiceChain chain = border_chain({10.0});
  const auto move = pick(chain, {0}, {UtilizationReport{0.5, 0.0}, UtilizationReport{0.2, 0.1},
                                      UtilizationReport{0.1, 0.2}});
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->slot, 1u);
}

TEST(PickBorderMove, CandidateWithNoFittingSlotFallsThrough) {
  const ServiceChain chain = border_chain({2.0, 10.0});  // adds 0.5, 0.1
  const auto move = pick(chain, {0, 1}, {UtilizationReport{0.5, 0.0}});
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->node, 1u);
  EXPECT_EQ(move->slot, 0u);
  EXPECT_DOUBLE_EQ(move->projected, 0.6);
}

TEST(PickBorderMove, CandidateWithoutSmartNicCapacityIsSkipped) {
  // Even with no ceiling, where a zero-capacity NF's infinite demand would
  // "fit", it is never chosen.
  const ServiceChain chain = border_chain({0.0, 10.0});
  const auto move = pick(chain, {0, 1}, {UtilizationReport{0.0, 0.0}},
                         std::numeric_limits<double>::infinity());
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->node, 1u);
}

TEST(PickBorderMove, NoCeilingPicksTheLeastLoadedSlot) {
  // The evacuation form: nothing to add (0 Gbps) and no ceiling, so the
  // scan is plain least max(nic, cpu) over the slots the caller allows.
  const ServiceChain chain = border_chain({2.0});
  const auto evacuate = [&](const std::vector<std::optional<UtilizationReport>>& slots) {
    return pick(chain, {0}, slots, std::numeric_limits<double>::infinity(), Gbps{0.0});
  };
  // Slots 2 and 3 tie at 0.7: the lower one wins; excluded slots never do.
  const auto move = evacuate({std::nullopt, UtilizationReport{0.95, 0.3},
                              UtilizationReport{0.2, 0.7}, UtilizationReport{0.7, 0.1},
                              std::nullopt});
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->slot, 2u);
  EXPECT_DOUBLE_EQ(move->projected, 0.7);
  // Overloaded slots still qualify: the least loaded of them wins.
  const auto hot =
      evacuate({UtilizationReport{1.5, 0.0}, std::nullopt, UtilizationReport{1.2, 1.3}});
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->slot, 2u);
  // Every slot excluded: nowhere to go.
  EXPECT_FALSE(evacuate({std::nullopt, std::nullopt}).has_value());
}

TEST(PickBorderMove, NothingFits) {
  const ServiceChain chain = border_chain({2.0});
  EXPECT_FALSE(pick(chain, {0}, {UtilizationReport{0.5, 0.0}, std::nullopt,
                                 UtilizationReport{0.1, 0.95}})
                   .has_value());
  EXPECT_FALSE(pick(chain, {}, {UtilizationReport{0.0, 0.0}}).has_value());
}

}  // namespace
}  // namespace pam
