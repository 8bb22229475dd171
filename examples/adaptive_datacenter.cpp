// Closed-loop scenario: fluctuating datacenter traffic drives the chain,
// the rack's FleetController periodically queries device load (as the
// paper's network administrators do), and PAM migrations are executed live
// by the MigrationEngine — loss-free, inside simulated time.
//
//   $ ./build/examples/adaptive_datacenter

#include <cstdio>
#include <memory>

#include "chain/chain_builder.hpp"
#include "control/fleet_controller.hpp"
#include "control/scale_out.hpp"
#include "core/pam_policy.hpp"
#include "device/server.hpp"
#include "sim/datacenter_simulator.hpp"

int main() {
  using namespace pam;
  using namespace pam::literals;

  Server server = Server::paper_testbed();
  const ServiceChain chain = paper_figure1_chain();

  // Baseline load for 60 ms, then the spike the paper studies.
  TrafficSourceConfig traffic;
  traffic.rate = RateProfile::step(paper_baseline_rate(), paper_overload_rate(),
                                   SimTime::milliseconds(60));
  traffic.process = ArrivalProcess::kPoisson;
  traffic.sizes = PacketSizeDistribution::imix();
  traffic.flows.flow_count = 512;
  traffic.seed = 2024;

  // One rack with one slot (the default shape): the chain runs as chain 0.
  DatacenterSimulator dc{DatacenterSimulator::Options{}};
  dc.add_chain(chain, traffic, 0);
  ChainSimulator& sim = dc.chain_sim(0);

  FleetControllerOptions copts;
  copts.period = SimTime::milliseconds(5);
  copts.first_check = SimTime::milliseconds(5);
  copts.trigger_utilization = 1.0;
  FleetController controller{dc.rack(0), std::make_unique<PamPolicy>(), copts};
  controller.arm();

  std::printf("chain: %s\n", chain.describe().c_str());
  std::printf("load:  %s\n\n", traffic.rate.describe().c_str());

  dc.run(SimTime::milliseconds(200), SimTime::milliseconds(10), /*threads=*/1);
  const SimReport report = sim.build_report();

  std::printf("--- controller timeline ---\n");
  for (const auto& event : controller.events()) {
    std::printf("[%10s] %-17s %s\n", event.at.to_string().c_str(),
                std::string{to_string(event.kind)}.c_str(), event.detail.c_str());
  }
  std::printf("\n--- migrations ---\n");
  for (const auto& record : controller.engine(0).records()) {
    std::printf("%s: %s -> %s, state %s, downtime %s, buffered %llu pkts (0 lost)\n",
                record.nf_name.c_str(), std::string(to_string(record.from)).c_str(),
                std::string(to_string(record.to)).c_str(),
                record.state_size.to_string().c_str(),
                record.downtime().to_string().c_str(),
                static_cast<unsigned long long>(record.packets_buffered));
  }

  std::printf("\n--- end-to-end report ---\n%s\n", report.summary().c_str());
  std::printf("\nfinal placement: %s (crossings %u)\n", sim.chain().describe().c_str(),
              sim.chain().pcie_crossings());

  // What if the load kept growing past what migration can absorb?
  const ChainAnalyzer analyzer{server};
  const ScaleOutPlanner planner;
  const auto decision = planner.plan(sim.chain(), analyzer, 6.0_gbps);
  std::printf("\nscale-out sizing at 6 Gbps: %zu replicas (%s)\n", decision.replicas,
              decision.rationale.c_str());
  return 0;
}
