// Measurement output of one simulation run.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "nf/nf_spec.hpp"

namespace pam {

/// Per-chain-node measurement: residence time (queue wait + service) at the
/// node's device, per visit, during the measurement window.
struct NodeSummary {
  std::string name;
  Location location = Location::kSmartNic;
  std::uint64_t packets = 0;
  SimTime mean_residence;
  SimTime p99_residence;
};

struct SimReport {
  // --- packet accounting (whole run, including warmup) ---------------------
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_queue_nic = 0;   ///< drop-tail at the SmartNIC
  std::uint64_t dropped_queue_cpu = 0;   ///< drop-tail at the CPU
  std::uint64_t dropped_queue_pcie = 0;  ///< drop-tail at the link
  std::uint64_t dropped_by_nf = 0;       ///< policy drops (ACL, limiter, ...)
  std::uint64_t in_flight_at_end = 0;

  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_queue_nic + dropped_queue_cpu + dropped_queue_pcie + dropped_by_nf;
  }
  /// Conservation invariant: every injected packet is accounted for.
  [[nodiscard]] bool conserved() const noexcept {
    return injected == delivered + dropped_total() + in_flight_at_end;
  }

  // --- measurement window (after warmup) -----------------------------------
  LatencyRecorder latency;
  Gbps egress_goodput;   ///< delivered bytes over the measurement window
  Gbps offered_rate;     ///< injected bytes over the measurement window
  std::uint64_t measured_delivered = 0;

  // --- device-level observations (whole run) -------------------------------
  double smartnic_utilization = 0.0;
  double cpu_utilization = 0.0;
  double pcie_utilization = 0.0;
  std::uint64_t pcie_crossings = 0;
  /// Rack-fabric forwardings to/from other slots of the rack (0 for a
  /// chain whose nodes all stay on its home slot).
  std::uint64_t inter_server_hops = 0;
  double mean_crossings_per_packet = 0.0;

  SimTime duration = SimTime::zero();

  /// One entry per chain node, in chain order.
  std::vector<NodeSummary> per_node;

  [[nodiscard]] std::string summary() const;
};

}  // namespace pam
