// A full diurnal traffic cycle with bidirectional placement: the load rises
// (PAM pushes the Logger aside), falls (scale-in pulls it back), and rises
// again — the controller handles all of it live, loss-free, inside one
// simulation.
//
//   $ ./build/examples/traffic_cycle

#include <cstdio>
#include <memory>

#include "chain/chain_builder.hpp"
#include "control/fleet_controller.hpp"
#include "core/pam_policy.hpp"
#include "core/scale_in_policy.hpp"
#include "sim/datacenter_simulator.hpp"

int main() {
  using namespace pam;
  using namespace pam::literals;

  const ServiceChain chain = paper_figure1_chain();

  TrafficSourceConfig traffic;
  traffic.rate = RateProfile::schedule({
      {SimTime::zero(), paper_baseline_rate()},           // calm
      {SimTime::milliseconds(60), paper_overload_rate()}, // spike
      {SimTime::milliseconds(160), 0.9_gbps},             // calm again
      {SimTime::milliseconds(280), paper_overload_rate()},// second spike
  });
  traffic.process = ArrivalProcess::kPoisson;
  traffic.sizes = PacketSizeDistribution::imix();
  traffic.seed = 77;

  // One rack with one slot (the default shape): the chain runs as chain 0.
  DatacenterSimulator dc{DatacenterSimulator::Options{}};
  dc.add_chain(chain, traffic, 0);
  ChainSimulator& sim = dc.chain_sim(0);

  FleetControllerOptions opts;
  opts.period = SimTime::milliseconds(5);
  opts.first_check = SimTime::milliseconds(5);
  opts.cooldown = SimTime::milliseconds(30);
  FleetController controller{dc.rack(0), std::make_unique<PamPolicy>(), opts};
  // 0.55: a hysteresis band under the trigger.
  controller.plane().set_scale_in_policy(std::make_unique<ScaleInPolicy>(), 0.55);
  controller.arm();

  std::printf("chain: %s\nload:  %s\n\n", chain.describe().c_str(),
              traffic.rate.describe().c_str());

  dc.run(SimTime::milliseconds(400), SimTime::milliseconds(10), /*threads=*/1);
  const SimReport report = sim.build_report();

  std::printf("--- controller timeline ---\n");
  for (const auto& event : controller.events()) {
    std::printf("[%10s] %-17s %s\n", event.at.to_string().c_str(),
                std::string{to_string(event.kind)}.c_str(), event.detail.c_str());
  }
  std::printf("\n--- migrations (%zu total) ---\n",
              controller.engine(0).records().size());
  for (const auto& record : controller.engine(0).records()) {
    std::printf("%-8s %s -> %-8s downtime %-10s buffered %llu\n",
                record.nf_name.c_str(), std::string(to_string(record.from)).c_str(),
                std::string(to_string(record.to)).c_str(),
                record.downtime().to_string().c_str(),
                static_cast<unsigned long long>(record.packets_buffered));
  }
  std::printf("\nfinal placement: %s\n", sim.chain().describe().c_str());
  std::printf("\n--- end-to-end ---\n%s\n", report.summary().c_str());
  return 0;
}
