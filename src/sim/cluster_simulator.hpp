// Fleet-scale simulation: N SmartNIC/CPU servers x M service chains on one
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
// A run produces a ClusterReport: the per-chain SimReports, per-server
// device utilisation/accounting, and a fleet aggregation (Memento-style
// cheap fleet-wide metrics: merged latency distribution, summed packet
// accounting, total goodput) — one structure instead of report stitching.
//
// Determinism: one kernel, one thread, seeded chains — identical inputs
// give bit-identical reports.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/calibration.hpp"
#include "device/server.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/sim_report.hpp"
#include "sim/simulation_kernel.hpp"

namespace pam {

/// Device-level view of one rack slot over the whole run.
struct ServerSummary {
  std::size_t server_id = 0;
  std::size_t chains_homed = 0;    ///< chains whose ingress/egress live here
  std::size_t nodes_hosted = 0;    ///< chain nodes bound here at run end
  double smartnic_utilization = 0.0;
  double cpu_utilization = 0.0;
  double pcie_utilization = 0.0;
  /// Packet accounting summed over the chains homed on this slot.
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

/// Fleet aggregation of one cluster run: per-chain reports, per-server
/// summaries, and merged totals.
struct ClusterReport {
  std::size_t servers = 0;
  SimTime duration = SimTime::zero();

  std::vector<SimReport> per_chain;       ///< in add_chain order
  std::vector<ServerSummary> per_server;  ///< indexed by server id

  // --- fleet totals (whole run) --------------------------------------------
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t in_flight_at_end = 0;
  std::uint64_t pcie_crossings = 0;
  std::uint64_t inter_server_hops = 0;
  /// Packets sent over the cross-rack fabric (datacenter mode; 0 for
  /// a single-rack run).
  std::uint64_t cross_rack_hops = 0;

  // --- fleet measurement window --------------------------------------------
  LatencyRecorder latency;  ///< merged across all chains
  Gbps egress_goodput;      ///< summed over chains
  Gbps offered_rate;        ///< summed over chains

  /// Conservation across the whole fleet.
  [[nodiscard]] bool conserved() const noexcept {
    return injected == delivered + dropped_total + in_flight_at_end;
  }

  [[nodiscard]] std::string summary() const;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(std::size_t num_servers,
                            Calibration calibration = Calibration::defaults(),
                            SimTime inter_server_latency = SimTime::microseconds(50.0));

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  /// Adds a chain homed on rack slot `home_server`.  Returns the chain
  /// index.  Call before run().
  std::size_t add_chain(ServiceChain chain, TrafficSourceConfig traffic,
                        std::size_t home_server);

  [[nodiscard]] std::size_t num_servers() const noexcept { return servers_.size(); }
  [[nodiscard]] std::size_t num_chains() const noexcept { return chains_.size(); }

  [[nodiscard]] SimulationKernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] ChainSimulator& chain_sim(std::size_t i) { return *chains_.at(i); }
  [[nodiscard]] const ChainSimulator& chain_sim(std::size_t i) const {
    return *chains_.at(i);
  }
  [[nodiscard]] Server& server(std::size_t s) { return *servers_.at(s); }
  [[nodiscard]] ServerDevices& devices(std::size_t s) { return *devices_.at(s); }
  [[nodiscard]] const Calibration& calibration() const noexcept { return calibration_; }

  /// Re-binds node `node` of chain `c` to rack slot `target` at `loc`
  /// (cross-server scale-out; effective for packets not yet routed there).
  void move_node(std::size_t c, std::size_t node, std::size_t target, Location loc);

  /// Cumulative busy fraction of slot `s`'s NIC / CPU over [0, now] — the
  /// fleet controller's least-loaded and fit signals.
  [[nodiscard]] double server_nic_load(std::size_t s) const;
  [[nodiscard]] double server_cpu_load(std::size_t s) const;
  /// The hottest of the two.
  [[nodiscard]] double server_load(std::size_t s) const;

  // --- failure scenarios -----------------------------------------------------

  /// Marks slot `s` dead / alive again.  The simulator keeps executing work
  /// already bound there (the ToR and the slot's queues survive long enough
  /// to drain); liveness is a placement signal the FleetController consults
  /// when choosing evacuation / scale-out targets.
  void fail_server(std::size_t s);
  void recover_server(std::size_t s);
  [[nodiscard]] bool server_alive(std::size_t s) const { return alive_.at(s); }
  [[nodiscard]] std::size_t servers_alive() const;

  // --- hostile-link scenarios ------------------------------------------------

  /// Re-shapes the rack fabric: every chain's inter-slot forwarding latency
  /// becomes `latency` from now on (trace-driven delay schedules).
  void set_fabric_latency(SimTime latency);
  /// Capacity fade: slot `s`'s NIC and CPU service rates are multiplied by
  /// `speed` (1.0 = nominal) for subsequently submitted jobs.
  void set_slot_speed(std::size_t s, double speed);

  /// Runs every chain to the horizon, drains, and aggregates.  Single-shot.
  [[nodiscard]] ClusterReport run(SimTime duration,
                                  SimTime warmup = SimTime::milliseconds(10));

  // --- epoch-stepped driving (sharded datacenter mode) ----------------------

  /// Schedules every chain's first arrival without running the kernel; the
  /// DatacenterSimulator then advances this rack's kernel epoch by epoch.
  /// run() == begin() + kernel().run() + collect().
  void begin();

  /// Aggregates the rack's ClusterReport from the current counters; valid
  /// once the kernel has fully drained.
  [[nodiscard]] ClusterReport collect(SimTime duration);

 private:
  Calibration calibration_;
  SimulationKernel kernel_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<ServerDevices>> devices_;
  std::vector<std::unique_ptr<ChainSimulator>> chains_;
  std::vector<std::size_t> home_of_;  ///< chain index -> home server id
  std::vector<bool> alive_;           ///< per-slot liveness (failure kinds)
  SimTime inter_server_latency_;
};

}  // namespace pam
