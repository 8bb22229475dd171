#include "sim/cluster_simulator.hpp"

#include <algorithm>
#include <cassert>

#include "common/strings.hpp"

namespace pam {

ClusterSimulator::ClusterSimulator(std::size_t num_servers, Calibration calibration,
                                   SimTime inter_server_latency)
    : calibration_(calibration),
      inter_server_latency_(inter_server_latency) {
  assert(num_servers > 0);
  servers_.reserve(num_servers);
  devices_.reserve(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    servers_.push_back(std::make_unique<Server>(Server::paper_testbed()));
    devices_.push_back(std::make_unique<ServerDevices>(
        kernel_.queue(), calibration_, format("[%zu]", s)));
  }
  alive_.assign(num_servers, true);
}

std::size_t ClusterSimulator::add_chain(ServiceChain chain,
                                        TrafficSourceConfig traffic,
                                        std::size_t home_server) {
  assert(home_server < servers_.size());
  auto sim = std::make_unique<ChainSimulator>(
      kernel_, *devices_.at(home_server), home_server, std::move(chain),
      *servers_.at(home_server), std::move(traffic), calibration_);
  sim->set_inter_server_latency(inter_server_latency_);
  chains_.push_back(std::move(sim));
  home_of_.push_back(home_server);
  return chains_.size() - 1;
}

void ClusterSimulator::move_node(std::size_t c, std::size_t node,
                                 std::size_t target, Location loc) {
  ChainSimulator& sim = *chains_.at(c);
  sim.set_node_server(node, target, *devices_.at(target), *servers_.at(target));
  sim.set_node_location(node, loc);
}

double ClusterSimulator::server_nic_load(std::size_t s) const {
  return devices_.at(s)->nic.utilization(kernel_.now());
}

double ClusterSimulator::server_cpu_load(std::size_t s) const {
  return devices_.at(s)->cpu.utilization(kernel_.now());
}

double ClusterSimulator::server_load(std::size_t s) const {
  return std::max(server_nic_load(s), server_cpu_load(s));
}

void ClusterSimulator::fail_server(std::size_t s) { alive_.at(s) = false; }

void ClusterSimulator::recover_server(std::size_t s) { alive_.at(s) = true; }

std::size_t ClusterSimulator::servers_alive() const {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), true));
}

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

void ClusterSimulator::begin() {
  for (auto& chain : chains_) {
    chain->start();
  }
}

ClusterReport ClusterSimulator::run(SimTime duration, SimTime warmup) {
  begin();
  kernel_.run(duration, warmup);
  return collect(duration);
}

ClusterReport ClusterSimulator::collect(SimTime duration) {
  ClusterReport report;
  report.servers = servers_.size();
  report.duration = duration;
  report.per_server.resize(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    ServerSummary& sum = report.per_server[s];
    sum.server_id = s;
    sum.smartnic_utilization = devices_[s]->nic.utilization(duration);
    sum.cpu_utilization = devices_[s]->cpu.utilization(duration);
    sum.pcie_utilization = devices_[s]->pcie.utilization(duration);
  }

  double goodput = 0.0;
  double offered = 0.0;
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    SimReport chain_report = chains_[c]->build_report();
    const std::size_t home = home_of_[c];
    ServerSummary& sum = report.per_server[home];
    ++sum.chains_homed;
    sum.injected += chain_report.injected;
    sum.delivered += chain_report.delivered;
    sum.dropped += chain_report.dropped_total();

    report.injected += chain_report.injected;
    report.delivered += chain_report.delivered;
    report.dropped_total += chain_report.dropped_total();
    report.in_flight_at_end += chain_report.in_flight_at_end;
    report.pcie_crossings += chain_report.pcie_crossings;
    report.inter_server_hops += chain_report.inter_server_hops;
    report.cross_rack_hops += chains_[c]->cross_rack_hops();
    report.latency.merge(chain_report.latency);
    goodput += chain_report.egress_goodput.value();
    offered += chain_report.offered_rate.value();

    const ServiceChain& chain = chains_[c]->chain();
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (chains_[c]->node_remote(i)) {
        continue;  // leased to another rack; credited to its host slot there
      }
      ++report.per_server[chains_[c]->node_server(i)].nodes_hosted;
    }
    report.per_chain.push_back(std::move(chain_report));
  }
  report.egress_goodput = Gbps{goodput};
  report.offered_rate = Gbps{offered};
  return report;
}

std::string ClusterReport::summary() const {
  std::string out = format(
      "cluster: %zu server(s), %zu chain(s) | injected %llu, delivered %llu, "
      "dropped %llu, in-flight %llu | offered %s -> goodput %s\n",
      servers, per_chain.size(), static_cast<unsigned long long>(injected),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(dropped_total),
      static_cast<unsigned long long>(in_flight_at_end),
      offered_rate.to_string().c_str(), egress_goodput.to_string().c_str());
  out += format("fleet latency %s | pcie crossings %llu, inter-server hops %llu",
                latency.summary().c_str(),
                static_cast<unsigned long long>(pcie_crossings),
                static_cast<unsigned long long>(inter_server_hops));
  return out;
}

}  // namespace pam
