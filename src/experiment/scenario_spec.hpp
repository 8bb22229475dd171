// Scenario specifications — the experiment layer's configuration language.
//
// A scenario is a self-contained description of one experiment: which chain
// (or chains) to deploy, what traffic to offer, which policy to run, how
// long to simulate, and how to measure.  Scenarios are written in a small
// INI-style text format (`.scn` files, see the grammar below) so that every
// figure/table of the paper — and every workload beyond it — is a reviewable
// text file under `scenarios/`, not setup code copy-pasted across benches.
//
// Format:
//
//   # comment                      (full-line comments only)
//   [section]
//   key = value
//
// Sections and keys by scenario kind (see docs/REPRODUCING.md for the
// worked examples).  The authoritative list is the key table `kRows` in
// scenario_spec.cpp: one row per (section, key) with the kinds that accept
// it, its codec and its range.
//
//   [scenario]   name, kind (compare|capacity|timeline|deployment|cluster|
//                churn|failure|hostile),
//                description, note (repeatable), chain (chain-spec string),
//                plan_rate_gbps, measure (analytic|des|both),
//                duration_ms, warmup_ms, seed
//   [traffic]    arrival (cbr|poisson), sizes (fixed N | imix |
//                uniform LO HI | sweep), rate (constant G | step B A at_ms=T
//                | sinusoid BASE AMP period_ms=P
//                | flash BASE PEAK at_ms=T for_ms=D; timeline scenarios only)
//   [policy]     name (registered policy, inline params allowed),
//                param.KEY = NUMBER (repeatable per key) — timeline + fleet
//                kinds; scale_in, scale_in.param.KEY  — timeline only
//   [variant]    label, policy (registered name[:key=val,...]),
//                measure_rate (G | plan | cap x M)    — repeatable; compare
//   [capacity]   nfs, locations, loss_threshold, search_iters, size_bytes
//   [controller] trigger_utilization, scale_in_below, period_ms,
//                first_check_ms, cooldown_ms          — timeline; the loop
//                knobs of ClusterSpec, as [cluster] sets them for a fleet
//   [chain]      name, spec, offered_gbps,
//                server, policy (fleet kinds only),
//                arrive_ms, depart_ms, rate (churn only)
//                — repeatable; deployment + fleet kinds
//   [deployment] burst_multiplier, scale_out_headroom
//   [cluster]    servers, rebalance (on|off), inter_server_us,
//                trigger_utilization, target_max_load, period_ms,
//                first_check_ms, cooldown_ms, shards,
//                threads, cross_rack_us, orchestrate (on|off)
//                (these three need shards > 1)    — all fleet kinds
//   [failure]    fail = SERVER at_ms=T [recover_ms=U]   — repeatable; failure
//   [link]       fabric = at_ms=T delay_us=D,
//                fade = SERVER at_ms=T speed=F     — repeatable; hostile
//
// "Fleet kinds" are the multi-server DES kinds sharing the [cluster] rack
// model: cluster, churn, failure, hostile.  A timeline runs the same fleet
// path on one slot; its [controller] keys set the same ClusterSpec fields.
//
// Policies are named, not enumerated: every `policy`/`name` value is
// resolved against control/policy_registry.hpp at parse time, so an unknown
// policy (or parameter key) is a strict error listing what IS registered —
// never a silent fallback.
//
// Parsing is strict: unknown sections/keys, duplicate scalar sections,
// duplicate keys, missing required fields, keys given for a kind that does
// not use them (even at their default value), and numbers out of range are
// all reported as errors with the offending line.  Every number must be
// finite; rates are >= 0; times convert to SimTime without overflow, and
// periods and the epoch quantum are at least one simulated ns.
// `ScenarioSpec::to_text()` emits a canonical rendering that parses back to
// an equal spec (round-trip property, covered by tests/test_scenario_spec.cpp).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "control/policy_registry.hpp"
#include "nf/nf_spec.hpp"
#include "trafficgen/traffic_source_config.hpp"

namespace pam {

/// What shape of experiment a scenario describes.
enum class ScenarioKind : std::uint8_t {
  kCompare,     ///< one chain, N policy variants, analytic and/or DES measurement
  kCapacity,    ///< per-NF isolated capacity search (the paper's Table 1 method)
  kTimeline,    ///< one chain driven by a time-varying rate under the controller
  kDeployment,  ///< multi-chain deployment: multi-chain PAM + scale-out sizing
  kCluster,     ///< N servers x M chains under the fleet controller (DES)
  kChurn,       ///< cluster + tenants arriving/departing with diurnal/flash rates
  kFailure,     ///< cluster + server death/recovery forcing loss-free evacuation
  kHostile,     ///< cluster + trace-shaped fabric delay and capacity fades
};

/// True for the multi-server kinds that share the [cluster] rack model and
/// run path (cluster, churn, failure, hostile).
[[nodiscard]] constexpr bool is_fleet_kind(ScenarioKind kind) noexcept {
  return kind == ScenarioKind::kCluster || kind == ScenarioKind::kChurn ||
         kind == ScenarioKind::kFailure || kind == ScenarioKind::kHostile;
}

/// Whether a compare scenario evaluates the closed-form model, the DES, or both.
enum class MeasureMode : std::uint8_t { kAnalytic, kDes, kBoth };

[[nodiscard]] std::string_view to_string(ScenarioKind kind) noexcept;
[[nodiscard]] std::string_view to_string(MeasureMode mode) noexcept;

/// Packet-size selection for the traffic source.
struct SizeSpec {
  enum class Kind : std::uint8_t {
    kFixed,       ///< every packet `fixed` bytes
    kImix,        ///< 7:4:1 Internet mix
    kUniform,     ///< uniform in [lo, hi]
    kPaperSweep,  ///< one DES run per size of the paper's 64B..1500B sweep
  };

  Kind kind = Kind::kFixed;
  std::size_t fixed = 512;
  std::size_t lo = 64;
  std::size_t hi = 1500;

  [[nodiscard]] bool operator==(const SizeSpec&) const = default;
};

/// Offered-load-over-time profile (timeline scenarios; per-chain in churn).
struct RateSpec {
  enum class Kind : std::uint8_t { kConstant, kStep, kSinusoid, kFlash };

  Kind kind = Kind::kConstant;
  double a = 1.0;         ///< constant rate / step "before" / sinusoid base / flash base (Gbps)
  double b = 0.0;         ///< step "after" / sinusoid amplitude / flash peak (Gbps)
  double at_ms = 0.0;     ///< step time / flash-crowd onset
  double period_ms = 0.0; ///< sinusoid period
  double for_ms = 0.0;    ///< flash-crowd duration

  [[nodiscard]] bool operator==(const RateSpec&) const = default;
};

/// The rate a compare variant is measured at (policies always *plan* at the
/// scenario's plan_rate_gbps; measurement may differ, e.g. Figure 2(a)
/// measures "Original" at the pre-spike baseline).
struct MeasureRate {
  enum class Kind : std::uint8_t {
    kGbps,      ///< absolute rate in `value`
    kPlanRate,  ///< the scenario's plan_rate_gbps
    kCapTimes,  ///< `value` x the variant's analytic capacity (saturation runs)
  };

  Kind kind = Kind::kPlanRate;
  double value = 0.0;

  [[nodiscard]] bool operator==(const MeasureRate&) const = default;
};

/// The traffic source: arrival process, packet sizes, and (for timeline
/// scenarios) the offered-load profile.
struct TrafficSpec {
  ArrivalProcess arrival = ArrivalProcess::kCbr;
  SizeSpec sizes;
  RateSpec rate;

  [[nodiscard]] bool operator==(const TrafficSpec&) const = default;
};

/// One configuration of a compare scenario: a policy plus the rate it is
/// measured at.
struct VariantSpec {
  std::string label;
  PolicyConfig policy{"none", {}};  ///< registry name + tuning parameters
  MeasureRate measure_rate;

  [[nodiscard]] bool operator==(const VariantSpec&) const = default;
};

/// Capacity-scenario parameters (Table 1 reproduction).
struct CapacitySpec {
  std::vector<NfType> nfs;           ///< NF types to measure in isolation
  std::vector<Location> locations;   ///< devices to place each NF on
  double loss_threshold = 0.005;     ///< "negligible loss" bound
  int search_iters = 12;             ///< binary-search refinement steps
  std::size_t size_bytes = 512;      ///< fixed frame size for the search

  [[nodiscard]] bool operator==(const CapacitySpec&) const = default;
};

/// One tenant chain of a deployment or fleet scenario.
struct ChainDecl {
  std::string name;
  std::string spec;          ///< chain-spec string (see chain/chain_spec.hpp)
  double offered_gbps = 1.0;
  /// Home rack slot (fleet kinds only).  -1 = assign round-robin by
  /// declaration order.
  std::int64_t server = -1;
  /// Per-chain policy override (fleet kinds only); empty name =
  /// inherit the scenario's [policy].
  PolicyConfig policy;
  /// Tenant lifetime (churn scenarios only): the traffic source starts at
  /// arrive_ms and dies at depart_ms (-1 = stays for the whole run).
  double arrive_ms = 0.0;
  double depart_ms = -1.0;
  /// Per-chain offered-load profile (churn; a timeline's run sets it from
  /// [traffic] rate); when unset the chain offers a constant offered_gbps.
  bool has_rate = false;
  RateSpec rate;

  [[nodiscard]] bool operator==(const ChainDecl&) const = default;
};

/// One server death (and optional recovery) in a failure scenario.
struct FailureEvent {
  std::size_t server = 0;
  double at_ms = 0.0;        ///< death time
  double recover_ms = -1.0;  ///< recovery time; -1 = stays dead

  [[nodiscard]] bool operator==(const FailureEvent&) const = default;
};

/// Trace-shaped link behaviour for hostile scenarios: a rack-fabric delay
/// schedule plus per-slot capacity fades (mmWave-style deep fades).
struct LinkTraceSpec {
  struct FabricPoint {
    double at_ms = 0.0;
    double delay_us = 50.0;  ///< one-way fabric latency from at_ms onward

    [[nodiscard]] bool operator==(const FabricPoint&) const = default;
  };
  struct SlotFade {
    std::size_t server = 0;
    double at_ms = 0.0;
    double speed = 1.0;  ///< NIC+CPU service-rate multiplier from at_ms onward

    [[nodiscard]] bool operator==(const SlotFade&) const = default;
  };

  std::vector<FabricPoint> fabric;
  std::vector<SlotFade> fades;

  [[nodiscard]] bool empty() const noexcept {
    return fabric.empty() && fades.empty();
  }
  [[nodiscard]] bool operator==(const LinkTraceSpec&) const = default;
};

/// Deployment-scenario parameters.
struct DeploymentSpec {
  double burst_multiplier = 2.0;    ///< load multiplier for scale-out sizing
  double scale_out_headroom = 0.9;  ///< per-replica utilisation ceiling

  [[nodiscard]] bool operator==(const DeploymentSpec&) const = default;
};

/// The rack model and control-loop knobs; mirrors FleetControllerOptions
/// where named, which both the rack controllers and the datacenter
/// orchestrator read.  A fleet kind sets them in [cluster]; a timeline (a
/// one-slot fleet) sets only the loop knobs, in [controller].
struct ClusterSpec {
  std::size_t servers = 2;          ///< rack slots simulated
  bool rebalance = true;            ///< arm the fleet controller
  double inter_server_us = 50.0;    ///< one-way rack-fabric forwarding latency
  double trigger_utilization = 1.0;
  /// Scale-out target slots must stay below this projected load.
  double target_max_load = 0.9;
  double period_ms = 10.0;
  double first_check_ms = 10.0;
  double cooldown_ms = 20.0;
  /// Calm-direction threshold handed to ControlPlane::set_scale_in_policy
  /// with the `scale_in` policy (timeline only); 0 disables it.
  double scale_in_below = 0.0;

  // --- racks (the keys after `shards` parse only when shards > 1) -----------
  /// Kernel shards (racks): the fleet is partitioned into `shards` racks of
  /// servers/shards slots each, advancing in lock-step epochs
  /// (sim/datacenter_simulator.hpp).  1 runs the whole fleet as one rack,
  /// with the default cross_rack_us as its epoch quantum.
  std::size_t shards = 1;
  /// Worker threads for the epoch executor; results are bit-identical for
  /// any value.  Only meaningful (and only accepted) when shards > 1.
  std::size_t threads = 1;
  /// One-way cross-rack fabric latency == the epoch quantum (lookahead).
  double cross_rack_us = 100.0;
  /// Arm the DatacenterOrchestrator (cross-rack leases) above the per-rack
  /// fleet controllers.
  bool orchestrate = true;

  [[nodiscard]] bool operator==(const ClusterSpec&) const = default;
};

/// A fully parsed scenario.  Plain data: the runner (scenario_runner.hpp)
/// turns it into library objects; the sink (metrics_sink.hpp) echoes it into
/// the JSON output for provenance.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::vector<std::string> notes;  ///< free-form lines echoed after reports

  ScenarioKind kind = ScenarioKind::kCompare;
  std::string chain;            ///< chain-spec string (compare/timeline)
  double plan_rate_gbps = 2.2;  ///< rate the policies plan at
  MeasureMode measure = MeasureMode::kBoth;
  double duration_ms = 80.0;    ///< DES horizon
  double warmup_ms = 15.0;      ///< DES warmup excluded from metrics
  std::uint64_t seed = 1;

  TrafficSpec traffic;
  /// The control loop's policy ([policy] name/param.*; timeline + cluster).
  PolicyConfig policy{"pam", {}};
  /// Calm-direction policy ([policy] scale_in*); "none" disables drain.
  PolicyConfig scale_in{"none", {}};
  std::vector<VariantSpec> variants;  ///< compare scenarios
  CapacitySpec capacity;              ///< capacity scenarios
  std::vector<ChainDecl> chains;      ///< deployment + fleet scenarios
  DeploymentSpec deployment;          ///< deployment scenarios
  ClusterSpec cluster;                ///< fleet + timeline scenarios
  std::vector<FailureEvent> failures; ///< failure scenarios
  LinkTraceSpec link;                 ///< hostile scenarios

  [[nodiscard]] bool operator==(const ScenarioSpec&) const = default;

  /// Parses `text`; `origin` names the source (file path) in error messages.
  /// Validates chain-spec strings, required fields, and section/key use.
  [[nodiscard]] static Result<ScenarioSpec> parse(std::string_view text,
                                                  std::string_view origin = "<string>");

  /// Canonical rendering; parse(to_text()) == *this (round-trip property).
  [[nodiscard]] std::string to_text() const;

  /// Copy with every rate scaled by `factor` (plan rate, absolute variant
  /// measure rates, timeline rate profile, deployment offered loads).  Used
  /// by `pam_exp sweep`.
  [[nodiscard]] ScenarioSpec scaled(double factor) const;

  /// Copy re-pointed at `policy` — the CLI's `--policy` override.  Replaces
  /// the scenario default, clears per-chain overrides, and re-points every
  /// compare variant (labels become the policy's text form).  The scale-in
  /// policy is left alone.
  [[nodiscard]] ScenarioSpec with_policy(const PolicyConfig& policy) const;
};

}  // namespace pam
