#include "sim/cluster_simulator.hpp"

#include <cassert>

#include "chain/calibration.hpp"
#include "common/strings.hpp"

namespace pam {

ClusterSimulator::ClusterSimulator(std::size_t num_servers,
                                   SimTime inter_server_latency)
    : inter_server_latency_(inter_server_latency) {
  assert(num_servers > 0);
  devices_.reserve(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    devices_.push_back(std::make_unique<ServerDevices>(
        kernel_.queue(), Calibration::defaults(), format("[%zu]", s)));
  }
  alive_.assign(num_servers, true);
}

std::size_t ClusterSimulator::add_chain(ServiceChain chain,
                                        TrafficSourceConfig traffic,
                                        std::size_t home_server) {
  assert(home_server < devices_.size());
  auto sim = std::make_unique<ChainSimulator>(
      kernel_, *devices_.at(home_server), home_server, std::move(chain),
      server_, std::move(traffic));
  sim->set_inter_server_latency(inter_server_latency_);
  chains_.push_back(std::move(sim));
  return chains_.size() - 1;
}

void ClusterSimulator::move_node(std::size_t c, std::size_t node,
                                 std::size_t target, Location loc) {
  ChainSimulator& sim = *chains_.at(c);
  sim.set_node_server(node, target, *devices_.at(target));
  sim.set_node_location(node, loc);
}

double ClusterSimulator::server_nic_load(std::size_t s) const {
  return devices_.at(s)->nic.utilization(kernel_.now());
}

double ClusterSimulator::server_cpu_load(std::size_t s) const {
  return devices_.at(s)->cpu.utilization(kernel_.now());
}

void ClusterSimulator::fail_server(std::size_t s) { alive_.at(s) = false; }

void ClusterSimulator::recover_server(std::size_t s) { alive_.at(s) = true; }

void ClusterSimulator::set_fabric_latency(SimTime latency) {
  inter_server_latency_ = latency;
  for (auto& chain : chains_) {
    chain->set_inter_server_latency(latency);
  }
}

void ClusterSimulator::set_slot_speed(std::size_t s, double speed) {
  assert(speed > 0.0);
  devices_.at(s)->nic.set_speed(speed);
  devices_.at(s)->cpu.set_speed(speed);
}

}  // namespace pam
