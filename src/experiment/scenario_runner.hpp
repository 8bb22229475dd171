// Scenario execution: wires trafficgen -> sim -> core policies -> control
// for one parsed ScenarioSpec and returns a structured RunResult.
//
// The runner is the one place in the tree that knows how to set up an
// experiment; benches and examples are thin wrappers that load a bundled
// scenario and hand it here (see scenario_library.hpp).  Every run is
// deterministic given the scenario's seed: the DES is seeded, a sharded run's
// `threads` workers give bit-identical results at any thread count, and no
// wall-clock time enters the measurement.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "control/control_plane.hpp"
#include "core/migration_plan.hpp"
#include "experiment/scenario_spec.hpp"
#include "sim/datacenter_simulator.hpp"

namespace pam {

/// Latency distribution summary of one measured DES run, in microseconds.
struct LatencySummary {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  std::uint64_t samples = 0;
};

/// One discrete-event simulation execution (one traffic configuration).
struct MeasuredRun {
  std::size_t size_bytes = 0;  ///< fixed frame size; 0 == mixed (imix/uniform)
  double offered_gbps = 0.0;   ///< rate offered during the measurement window
  double goodput_gbps = 0.0;   ///< egress goodput over the measurement window
  LatencySummary latency;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_queue_nic = 0;
  std::uint64_t dropped_queue_cpu = 0;
  std::uint64_t dropped_queue_pcie = 0;
  std::uint64_t dropped_by_nf = 0;
  std::uint64_t in_flight_at_end = 0;  ///< packets still queued when time ran out
  double mean_crossings_per_packet = 0.0;
  double smartnic_utilization = 0.0;  ///< busy fraction observed by the DES
  double cpu_utilization = 0.0;
  double pcie_utilization = 0.0;

  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_queue_nic + dropped_queue_cpu + dropped_queue_pcie + dropped_by_nf;
  }
};

/// Closed-form model outputs for one chain placement.
struct AnalyticSummary {
  double max_rate_gbps = 0.0;      ///< fluid capacity (max sustainable rate)
  double smartnic_utilization = 0.0;  ///< at the variant's measure rate
  double cpu_utilization = 0.0;
  double pcie_utilization = 0.0;
  std::uint32_t pcie_crossings = 0;   ///< per packet, from the placement
};

/// Result of one compare-scenario variant: the plan the policy produced,
/// the model's view of the migrated chain, and any DES measurements.
struct VariantResult {
  std::string label;
  std::string policy;  ///< the variant's PolicyConfig in text form
  double plan_rate_gbps = 0.0;
  double measure_rate_gbps = 0.0;  ///< resolved (plan / absolute / cap x M)
  std::string chain_before;        ///< describe() of the pre-policy chain
  std::string chain_after;         ///< describe() after the plan is applied
  MigrationPlan plan;              ///< includes the policy's decision trace
  AnalyticSummary analytic;
  std::vector<MeasuredRun> runs;   ///< one per packet size (sweep), else one
};

/// One row of a capacity scenario (one NF on one device).
struct CapacityResult {
  std::string nf;
  std::string device;
  double configured_gbps = 0.0;  ///< θ from the capacity table
  double analytic_gbps = 0.0;    ///< model's max sustainable rate
  double realized_gbps = 0.0;    ///< DES binary-search saturation point
};

/// Result of a timeline scenario: the controller's typed decision log plus
/// the run-wide DES metrics.
struct TimelineResult {
  std::string chain_before;
  std::string chain_after;  ///< placement after all controller actions
  std::vector<ControlEvent> events;  ///< the `control_events` JSON section
  std::size_t migrations_executed = 0;
  bool scale_out_requested = false;
  MeasuredRun metrics;
};

/// Scale-out sizing of one deployment chain at the burst load.
struct DeploymentChainResult {
  std::string name;
  std::string chain_before;
  std::string chain_after;
  double offered_gbps = 0.0;
  double burst_gbps = 0.0;
  std::size_t replicas = 1;
  std::string scale_out_rationale;
};

/// Result of a deployment scenario: aggregate utilisation before/after the
/// multi-chain PAM pass plus per-chain scale-out sizing at the burst load.
struct DeploymentResult {
  double smartnic_before = 0.0;
  double cpu_before = 0.0;
  double smartnic_after = 0.0;
  double cpu_after = 0.0;
  double weighted_crossings_before = 0.0;
  double weighted_crossings_after = 0.0;
  bool feasible = true;
  std::string infeasibility_reason;
  int total_crossing_delta = 0;
  std::vector<std::string> trace;  ///< multi-chain PAM decision log
  std::vector<DeploymentChainResult> chains;
};

/// One chain of a cluster scenario: home slot, placement before/after the
/// fleet controller acted, and the chain's DES metrics.
struct ClusterChainResult {
  std::string name;
  std::size_t home_server = 0;
  std::string chain_before;
  std::string chain_after;
  std::size_t nodes_off_home = 0;  ///< nodes bound to another slot at run end
  /// Nodes leased to another rack at run end (sharded datacenter mode).
  std::size_t nodes_remote = 0;
  std::uint64_t inter_server_hops = 0;
  MeasuredRun metrics;
};

/// One rack slot of a cluster scenario (the simulator's own summary).
using ClusterServerResult = ServerSummary;

/// One kernel shard (rack) of a fleet run (the simulator's own summary).
using ClusterShardResult = ShardSummary;

/// Result of a cluster scenario: the fleet controller's event log, per-chain
/// and per-server metrics, and the fleet aggregation.
struct ClusterResult {
  std::size_t servers = 0;
  bool rebalance = false;
  std::vector<ControlEvent> events;        ///< fleet controller decisions
  std::size_t migrations_executed = 0;     ///< single-server push-asides
  std::size_t scale_out_moves = 0;         ///< cross-server border-NF moves
  std::size_t evacuations = 0;             ///< NFs moved off failed servers
  std::vector<ClusterChainResult> chains;
  std::vector<ClusterServerResult> per_server;
  MeasuredRun fleet;                       ///< merged fleet-wide metrics
  std::uint64_t inter_server_hops = 0;
  bool conserved = false;

  // --- racks: filled by every run; a one-rack (shards = 1) run has one shard
  // total, epochs > 0 and no cross-rack traffic ------------------------------
  std::size_t shards = 1;
  std::size_t cross_rack_moves = 0;        ///< committed cross-rack leases
  std::uint64_t cross_rack_hops = 0;       ///< packets over the shard fabric
  std::uint64_t cross_rack_frames = 0;     ///< frames exchanged at barriers
  std::uint64_t epochs = 0;                ///< lock-step epochs executed
  std::vector<ClusterShardResult> shard_totals;
};

/// Everything one scenario run produced.  Exactly one of the kind-specific
/// payloads is populated, matching spec.kind.
struct RunResult {
  ScenarioSpec spec;
  std::vector<VariantResult> variants;      ///< kind == compare
  std::vector<CapacityResult> capacities;   ///< kind == capacity
  std::optional<TimelineResult> timeline;   ///< kind == timeline
  std::optional<DeploymentResult> deployment;  ///< kind == deployment
  std::optional<ClusterResult> cluster;     ///< fleet kinds (cluster|churn|failure|hostile)
};

/// Executes scenarios.  Stateless; safe to reuse across runs.
class ScenarioRunner {
 public:
  ScenarioRunner() = default;

  /// Runs `spec` to completion.  Errors are configuration-level (e.g. a
  /// chain spec that no longer parses); simulation itself cannot fail.
  /// `threads_override` > 0 replaces [cluster] threads= for this run
  /// (sharded scenarios only — an override on a shards=1 spec is an error);
  /// the thread count never changes results, only wall-clock time.
  [[nodiscard]] Result<RunResult> run(const ScenarioSpec& spec,
                                      std::size_t threads_override = 0) const;
};

}  // namespace pam
