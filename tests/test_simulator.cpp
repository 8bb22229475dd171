// ChainSimulator integration tests: conservation, determinism, agreement
// with the analytic model, overload/drop behaviour, crossing accounting and
// the pause/resume machinery the migration engine uses.

#include <gtest/gtest.h>

#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "one_chain.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TrafficSourceConfig traffic(Gbps rate, std::size_t packet_size = 512,
                            std::uint64_t seed = 1,
                            ArrivalProcess process = ArrivalProcess::kCbr) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(rate);
  cfg.sizes = PacketSizeDistribution::fixed(packet_size);
  cfg.process = process;
  cfg.seed = seed;
  return cfg;
}

SimReport run_once(const ServiceChain& chain, TrafficSourceConfig cfg,
                   SimTime duration = SimTime::milliseconds(60),
                   SimTime warmup = SimTime::milliseconds(10)) {
  OneChain one{chain, std::move(cfg)};
  return one.run(duration, warmup);
}

TEST(Simulator, PacketConservation) {
  const auto report = run_once(paper_figure1_chain(), traffic(1.0_gbps));
  EXPECT_GT(report.injected, 0u);
  EXPECT_TRUE(report.conserved())
      << "injected " << report.injected << " delivered " << report.delivered
      << " dropped " << report.dropped_total() << " in-flight "
      << report.in_flight_at_end;
  EXPECT_EQ(report.in_flight_at_end, 0u);  // everything drained
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto a = run_once(paper_figure1_chain(), traffic(1.3_gbps, 512, 77));
  const auto b = run_once(paper_figure1_chain(), traffic(1.3_gbps, 512, 77));
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped_total(), b.dropped_total());
  EXPECT_EQ(a.latency.mean().ns(), b.latency.mean().ns());
  EXPECT_EQ(a.pcie_crossings, b.pcie_crossings);
}

TEST(Simulator, SeedChangesPoissonRealisation) {
  const auto a = run_once(paper_figure1_chain(),
                          traffic(1.3_gbps, 512, 1, ArrivalProcess::kPoisson));
  const auto b = run_once(paper_figure1_chain(),
                          traffic(1.3_gbps, 512, 2, ArrivalProcess::kPoisson));
  EXPECT_NE(a.latency.mean().ns(), b.latency.mean().ns());
}

TEST(Simulator, OfferedRateMatchesConfig) {
  const auto report = run_once(paper_figure1_chain(), traffic(1.0_gbps));
  EXPECT_NEAR(report.offered_rate.value(), 1.0, 0.05);
}

TEST(Simulator, GoodputEqualsOfferedBelowSaturation) {
  const auto report = run_once(paper_figure1_chain(), traffic(1.2_gbps));
  EXPECT_NEAR(report.egress_goodput.value(), 1.2, 0.06);
  EXPECT_EQ(report.dropped_total(), 0u);
}

TEST(Simulator, LatencyApproachesStructuralAtLowLoad) {
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const auto chain = paper_figure1_chain();
  const auto report = run_once(chain, traffic(0.2_gbps));
  const SimTime structural = analyzer.structural_latency(chain, Bytes{512});
  EXPECT_NEAR(report.latency.mean().us(), structural.us(),
              structural.us() * 0.1);
}

TEST(Simulator, MeasuredUtilizationTracksAnalyzer) {
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const auto chain = paper_figure1_chain();
  for (const double rate : {0.5, 1.0, 1.4}) {
    const auto report =
        run_once(chain, traffic(Gbps{rate}), SimTime::milliseconds(80));
    const auto predicted = analyzer.utilization(chain, Gbps{rate});
    EXPECT_NEAR(report.smartnic_utilization, predicted.smartnic,
                predicted.smartnic * 0.12 + 0.01)
        << rate;
    EXPECT_NEAR(report.cpu_utilization, predicted.cpu, predicted.cpu * 0.12 + 0.01)
        << rate;
  }
}

TEST(Simulator, OverloadCausesDropsAndCapsGoodput) {
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const auto chain = paper_figure1_chain();
  const Gbps cap = analyzer.max_sustainable_rate(chain);
  // Moderate (20%) overload: goodput pins at the sustainable rate.  Deeper
  // overload drives goodput *below* the fluid cap because packets admitted
  // at the Firewall can be drop-tailed at a later visit, wasting upstream
  // service — a real head-of-chain-waste effect the fluid model omits.
  const auto report =
      run_once(chain, traffic(cap * 1.2), SimTime::milliseconds(80));
  EXPECT_GT(report.dropped_queue_nic, 0u);
  EXPECT_NEAR(report.egress_goodput.value(), cap.value(), cap.value() * 0.1);
  EXPECT_GT(report.smartnic_utilization, 0.95);
  EXPECT_TRUE(report.conserved());

  // And the deeper-overload direction of the same fact:
  const auto deep = run_once(chain, traffic(cap * 2.5), SimTime::milliseconds(80));
  EXPECT_LT(deep.egress_goodput.value(), cap.value() * 1.02);
  EXPECT_TRUE(deep.conserved());
}

TEST(Simulator, CrossingsPerPacketMatchChain) {
  const auto chain = paper_figure1_chain();
  const auto report = run_once(chain, traffic(0.5_gbps));
  EXPECT_NEAR(report.mean_crossings_per_packet,
              static_cast<double>(chain.pcie_crossings()), 0.01);
}

TEST(Simulator, CrossingsTripleAfterNaiveMigration) {
  auto moved = paper_figure1_chain();
  moved.set_location(1, Location::kCpu);
  const auto report = run_once(moved, traffic(0.5_gbps));
  EXPECT_NEAR(report.mean_crossings_per_packet, 3.0, 0.01);
}

TEST(Simulator, MoreCrossingsMoreLatency) {
  const auto base = run_once(paper_figure1_chain(), traffic(0.5_gbps));
  auto moved = paper_figure1_chain();
  moved.set_location(1, Location::kCpu);
  const auto naive = run_once(moved, traffic(0.5_gbps));
  // Two extra crossings at ~32 us each, minus Monitor's cheaper CPU service.
  EXPECT_GT(naive.latency.mean().us(), base.latency.mean().us() + 40.0);
}

TEST(Simulator, FunctionalNfsObserveTraffic) {
  const auto chain = paper_figure1_chain();
  OneChain one{chain, traffic(0.8_gbps)};
  ChainSimulator& sim = one.sim();
  const auto report = one.run(SimTime::milliseconds(40), SimTime::milliseconds(5));
  // Every delivered packet passed through all four NFs.
  EXPECT_EQ(sim.nf(0).counters().packets_in, report.injected);
  EXPECT_EQ(sim.nf(1).counters().packets_in, report.injected);
  EXPECT_GE(sim.nf(3).counters().packets_in, report.delivered);
}

TEST(Simulator, RateProfileStepChangesThroughput) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::step(0.5_gbps, 2.0_gbps, SimTime::milliseconds(50));
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = 3;
  OneChain one{paper_figure1_chain(), cfg};
  ChainSimulator& sim = one.sim();

  std::vector<Gbps> observations;
  sim.kernel().schedule_at(SimTime::milliseconds(45), [&] {
    observations.push_back(sim.observed_ingress_rate(SimTime::milliseconds(10)));
  });
  sim.kernel().schedule_at(SimTime::milliseconds(95), [&] {
    observations.push_back(sim.observed_ingress_rate(SimTime::milliseconds(10)));
  });
  (void)one.run(SimTime::milliseconds(100), SimTime::milliseconds(5));
  ASSERT_EQ(observations.size(), 2u);
  EXPECT_NEAR(observations[0].value(), 0.5, 0.1);
  EXPECT_NEAR(observations[1].value(), 2.0, 0.25);
}

TEST(Simulator, PauseBuffersAndResumeFlushes) {
  OneChain one{paper_figure1_chain(), traffic(1.0_gbps)};
  ChainSimulator& sim = one.sim();
  sim.kernel().schedule_at(SimTime::milliseconds(20), [&] { sim.pause_node(2); });
  std::size_t buffered_at_resume = 0;
  sim.kernel().schedule_at(SimTime::milliseconds(21), [&] {
    buffered_at_resume = sim.buffered_at(2);
    sim.resume_node(2);
  });
  const auto report = one.run(SimTime::milliseconds(50), SimTime::milliseconds(5));
  EXPECT_GT(buffered_at_resume, 0u);   // 1 ms of traffic parked
  EXPECT_GT(sim.total_buffered(), 0u);
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.in_flight_at_end, 0u);  // nothing stranded: loss-free
}

TEST(Simulator, PausedNodeAtEndStrandsBufferedPackets) {
  OneChain one{paper_figure1_chain(), traffic(1.0_gbps)};
  ChainSimulator& sim = one.sim();
  sim.kernel().schedule_at(SimTime::milliseconds(20), [&] { sim.pause_node(2); });
  const auto report = one.run(SimTime::milliseconds(30), SimTime::milliseconds(5));
  EXPECT_GT(report.in_flight_at_end, 0u);  // parked forever, but accounted
  EXPECT_TRUE(report.conserved());
}

TEST(Simulator, MidRunRelocationTakesEffect) {
  OneChain one{paper_figure1_chain(), traffic(1.0_gbps)};
  ChainSimulator& sim = one.sim();
  sim.kernel().schedule_at(SimTime::milliseconds(25), [&] {
    sim.set_node_location(2, Location::kCpu);  // Logger -> CPU, crossings stay 1
  });
  const auto report = one.run(SimTime::milliseconds(60), SimTime::milliseconds(5));
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(sim.chain().location_of(2), Location::kCpu);
  // Crossings per packet unchanged (border move).
  EXPECT_NEAR(report.mean_crossings_per_packet, 1.0, 0.05);
}

TEST(Simulator, ObservedIngressRateTracksOffered) {
  OneChain one{paper_figure1_chain(), traffic(1.5_gbps)};
  ChainSimulator& sim = one.sim();
  Gbps observed;
  sim.kernel().schedule_at(SimTime::milliseconds(30), [&] {
    observed = sim.observed_ingress_rate(SimTime::milliseconds(5));
  });
  (void)one.run(SimTime::milliseconds(40), SimTime::milliseconds(5));
  EXPECT_NEAR(observed.value(), 1.5, 0.15);
}

TEST(Simulator, IngressWindowKeepsTheLatest65536Arrivals) {
  // 64 B frames at 10 Gbps arrive every ~51 ns, so a 10 ms window would
  // hold ~196k of them: the estimator keeps only the latest 65,536, and its
  // running byte sum must equal exactly their bytes.
  OneChain one{paper_figure1_chain(), traffic(10.0_gbps, 64)};
  ChainSimulator& sim = one.sim();
  Gbps observed;
  sim.kernel().schedule_at(SimTime::milliseconds(20), [&] {
    observed = sim.observed_ingress_rate(SimTime::milliseconds(10));
  });
  (void)one.run(SimTime::milliseconds(21), SimTime::milliseconds(5));
  EXPECT_EQ(observed.value(),
            rate_of(Bytes{65536 * 64}, SimTime::milliseconds(10)).value());
}

TEST(Simulator, PoissonAndCbrSameMeanThroughput) {
  const auto cbr = run_once(paper_figure1_chain(), traffic(1.0_gbps, 512, 5));
  const auto poisson = run_once(paper_figure1_chain(),
                                traffic(1.0_gbps, 512, 5, ArrivalProcess::kPoisson));
  EXPECT_NEAR(cbr.egress_goodput.value(), poisson.egress_goodput.value(), 0.08);
  // Poisson arrivals queue more: latency variance strictly larger.
  EXPECT_GT(poisson.latency.quantile(0.99).ns(), cbr.latency.quantile(0.99).ns());
}

TEST(Simulator, PerNodeStatsIdentifyTheHotNf) {
  // At 90% SmartNIC utilisation the shared-device queueing shows up in every
  // SmartNIC node's residence time, and each node saw every packet.
  const auto chain = paper_figure1_chain();
  OneChain one{chain, traffic(1.4_gbps)};
  const auto report = one.run(SimTime::milliseconds(60), SimTime::milliseconds(10));

  ASSERT_EQ(report.per_node.size(), 4u);
  EXPECT_EQ(report.per_node[0].name, "Firewall");
  EXPECT_EQ(report.per_node[3].name, "LoadBalancer");
  EXPECT_EQ(report.per_node[3].location, Location::kCpu);
  for (const auto& node : report.per_node) {
    EXPECT_GT(node.packets, 0u) << node.name;
    EXPECT_GT(node.mean_residence.ns(), 0) << node.name;
    EXPECT_GE(node.p99_residence, node.mean_residence) << node.name;
  }
  // Monitor's residence (service 1.28us at 3.2 Gbps) exceeds Firewall's
  // (0.41us at 10 Gbps): same queue wait, bigger service.
  EXPECT_GT(report.per_node[1].mean_residence, report.per_node[0].mean_residence);
}

TEST(Simulator, PerNodeResidenceGrowsWithLoad) {
  // Poisson arrivals: CBR + fixed sizes is a near-deterministic system with
  // almost no queueing even at 96% utilisation.
  Server server = Server::paper_testbed();
  const auto chain = paper_figure1_chain();
  OneChain light{chain, traffic(0.3_gbps, 512, 4, ArrivalProcess::kPoisson)};
  OneChain heavy{chain, traffic(1.45_gbps, 512, 4, ArrivalProcess::kPoisson)};
  const auto light_report = light.run(SimTime::milliseconds(60), SimTime::milliseconds(10));
  const auto heavy_report = heavy.run(SimTime::milliseconds(60), SimTime::milliseconds(10));
  // Queue wait at ~96% utilisation dwarfs the light-load residence.
  EXPECT_GT(heavy_report.per_node[1].mean_residence.ns(),
            3 * light_report.per_node[1].mean_residence.ns());
}

// Conservation property across a parameter grid of rates x sizes.
class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(ConservationSweep, EveryPacketAccounted) {
  const auto [rate, size] = GetParam();
  const auto report = run_once(paper_figure1_chain(), traffic(Gbps{rate}, size),
                               SimTime::milliseconds(40),
                               SimTime::milliseconds(5));
  EXPECT_TRUE(report.conserved())
      << "rate " << rate << " size " << size << ": injected " << report.injected
      << " delivered " << report.delivered << " dropped "
      << report.dropped_total() << " in-flight " << report.in_flight_at_end;
}

INSTANTIATE_TEST_SUITE_P(
    RateSizeGrid, ConservationSweep,
    ::testing::Combine(::testing::Values(0.3, 1.0, 1.6, 2.4, 4.0),
                       ::testing::Values(64, 512, 1500)));

}  // namespace
}  // namespace pam
