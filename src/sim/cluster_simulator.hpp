// One rack of the fleet: N SmartNIC/CPU servers x M service chains on one
// shared SimulationKernel.
//
// The paper's deployment story is a rack of SmartNIC-accelerated servers
// whose operators "periodically query the load of SmartNIC and CPU" and
// rebalance.  ClusterSimulator models that rack: every chain is an embedded
// ChainSimulator advancing on the shared event queue and drawing from the
// shared packet pool; chains homed on the same rack slot contend for that
// slot's ServerDevices (NPU, CPU, PCIe), and individual chain nodes can be
// re-bound to other slots at runtime — the actual mechanism behind
// cross-server scale-out (see control/fleet_controller.hpp for the policy
// side).
//
// Every slot has the same hardware: the rack holds one Server model
// (Server::paper_testbed()), which its chains and its controller's
// ChainAnalyzer share, and one ServerDevices queue set per slot.
//
// A rack does not run itself: DatacenterSimulator (one rack or many) starts
// its chains and advances its kernel epoch by epoch, and its report()
// assembles the run's DatacenterReport: the per-chain SimReports,
// per-server device utilisation/accounting and the fleet total, summed in
// one pass.
//
// Determinism: one kernel, one thread, seeded chains — identical inputs
// give bit-identical reports.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "device/server.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/simulation_kernel.hpp"

namespace pam {

class ClusterSimulator {
 public:
  explicit ClusterSimulator(std::size_t num_servers,
                            SimTime inter_server_latency = SimTime::microseconds(50.0));

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  /// Adds a chain homed on rack slot `home_server`.  Returns the chain
  /// index.  Call before the run starts.
  std::size_t add_chain(ServiceChain chain, TrafficSourceConfig traffic,
                        std::size_t home_server);

  [[nodiscard]] std::size_t num_servers() const noexcept { return devices_.size(); }
  [[nodiscard]] std::size_t num_chains() const noexcept { return chains_.size(); }

  [[nodiscard]] SimulationKernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] ChainSimulator& chain_sim(std::size_t i) { return *chains_.at(i); }
  [[nodiscard]] const ChainSimulator& chain_sim(std::size_t i) const {
    return *chains_.at(i);
  }
  /// The hardware model of every slot.
  [[nodiscard]] const Server& server() const noexcept { return server_; }
  [[nodiscard]] ServerDevices& devices(std::size_t s) { return *devices_.at(s); }

  /// Re-binds node `node` of chain `c` to rack slot `target` at `loc`
  /// (cross-server scale-out; effective for packets not yet routed there).
  void move_node(std::size_t c, std::size_t node, std::size_t target, Location loc);

  /// Cumulative busy fraction of slot `s`'s NIC / CPU over [0, now] — the
  /// fleet controller's least-loaded and fit signals.
  [[nodiscard]] double server_nic_load(std::size_t s) const;
  [[nodiscard]] double server_cpu_load(std::size_t s) const;

  // --- failure scenarios -----------------------------------------------------

  /// Marks slot `s` dead / alive again.  The simulator keeps executing work
  /// already bound there (the ToR and the slot's queues survive long enough
  /// to drain); liveness is a placement signal the FleetController consults
  /// when choosing evacuation / scale-out targets.
  void fail_server(std::size_t s);
  void recover_server(std::size_t s);
  [[nodiscard]] bool server_alive(std::size_t s) const { return alive_.at(s); }

  // --- hostile-link scenarios ------------------------------------------------

  /// Re-shapes the rack fabric: every chain's inter-slot forwarding latency
  /// becomes `latency` from now on (trace-driven delay schedules).
  void set_fabric_latency(SimTime latency);
  /// Capacity fade: slot `s`'s NIC and CPU service rates are multiplied by
  /// `speed` (1.0 = nominal) for subsequently submitted jobs.
  void set_slot_speed(std::size_t s, double speed);

 private:
  SimulationKernel kernel_;
  Server server_ = Server::paper_testbed();
  std::vector<std::unique_ptr<ServerDevices>> devices_;
  std::vector<std::unique_ptr<ChainSimulator>> chains_;
  std::vector<bool> alive_;           ///< per-slot liveness (failure kinds)
  SimTime inter_server_latency_;
};

}  // namespace pam
