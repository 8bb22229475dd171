// The control-plane API: ONE sense → decide → act loop.
//
// The paper's contribution is a decision loop — "the network administrators
// can periodically query the load of SmartNIC and CPU and execute the PAM
// border vNF selection algorithm".  ControlPlane owns it once:
//
//   every `period`, per managed chain:
//     skip while an action is in flight or the cooldown is running
//     Sensor::sense    — offered load (trailing window) + analytic
//                        utilisation of the chain's resident view
//     hot?             — chain demand >= trigger, or the shared slot is hot
//       Sensor::plan   — run the installed MigrationPolicy on that view
//       feasible       — Actuator::execute (loss-free migration engine)
//       infeasible     — Actuator::scale_out (move a border NF cross-server;
//                        on a one-slot rack, record the OpenNF request)
//     calm?            — when a scale-in policy is installed and the
//                        SmartNIC sits below its threshold, run it (pull
//                        pushed-aside vNFs back to the SmartNIC)
//
// FleetController, the rack tier, is the one client: it implements the
// Sensor (what "load" and "the chain" mean in a rack) and the Actuator (what
// "migrate" and "scale out" do there) and delegates everything else here.
// The two interfaces stay abstract so tests can drive the loop with
// scripted fakes.  Every decision is recorded as a typed ControlEvent —
// machine-readable telemetry serialised into the `control_events` JSON
// section by the experiment layer (docs/REPRODUCING.md documents the
// schema).
//
// The datacenter tier above it (DatacenterOrchestrator) is not a client:
// it has no policy to plan with, only a barrier-time check that leases a
// border NF to another rack through the rack tier's target scan.  Both
// tiers share one knob set: ControlPlaneOptions (extended by the racks'
// FleetControllerOptions, which the orchestrator reads too) and the
// kRateWindow constant below.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chain/chain_analyzer.hpp"
#include "core/migration_plan.hpp"
#include "core/policy.hpp"
#include "sim/simulation_kernel.hpp"

namespace pam {

/// One control-plane decision, typed for machines and narrated for humans.
struct ControlEvent {
  /// What the loop decided.  Serialised names (JSON `kind`) are listed next
  /// to each enumerator; `to_string`/`control_event_kind_from_string`
  /// convert.
  enum class Kind : std::uint8_t {
    kTriggered,        ///< "triggered": overload detected, policy armed
    kPlanned,          ///< "planned": feasible migration plan handed to the engine
    kMigrated,         ///< "migrated": an executed plan completed
    kInfeasible,       ///< "infeasible": no plan (or move) could relieve the hot spot
    kScaleOut,         ///< "scale-out": scale-out requested / decided
    kScaleIn,          ///< "scale-in": calm-direction plan handed to the engine
    kCrossServerMove,  ///< "cross-server-move": a border NF landed on another server
    kEvacuated,        ///< "evacuated": an NF moved off a failed server, loss-free
    kCrossRackMove,    ///< "cross_rack_move": a border NF leased to another rack
  };

  SimTime at = SimTime::zero();  ///< simulated time of the decision
  Kind kind = Kind::kTriggered;
  std::size_t chain = 0;   ///< managed-chain index, local to the rack
  std::size_t server = 0;  ///< home slot; target slot for scale-out/cross-server events
  /// NFs moved by this decision, in plan order (empty for pure observations).
  std::vector<std::string> moved_nfs;
  /// Observed (kTriggered) or projected-after-the-action utilisations.
  double smartnic_utilization = 0.0;
  double cpu_utilization = 0.0;
  std::string detail;  ///< human-readable narration (the old free-text `what`)
};

/// Serialised name of `kind` (e.g. "cross-server-move").
[[nodiscard]] std::string_view to_string(ControlEvent::Kind kind) noexcept;
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<ControlEvent::Kind> control_event_kind_from_string(
    std::string_view name) noexcept;
/// Every kind, in declaration order — for docs, CLIs and CI validators.
[[nodiscard]] const std::vector<ControlEvent::Kind>& all_control_event_kinds();

/// Trailing window both control tiers (rack, datacenter) use to estimate a
/// chain's offered load.
inline constexpr SimTime kRateWindow = SimTime::milliseconds(5.0);

/// The shared loop's knobs; the target slot ceiling lives with
/// FleetControllerOptions.
struct ControlPlaneOptions {
  SimTime period = SimTime::milliseconds(10.0);
  SimTime first_check = SimTime::milliseconds(10.0);
  /// SmartNIC utilisation that arms the policy.
  double trigger_utilization = 1.0;
  /// Quiet time per chain after a completed action before re-triggering.
  SimTime cooldown = SimTime::milliseconds(20.0);
};

class ControlPlane {
 public:
  /// One tick's sensor reading for one chain.
  struct Sample {
    /// False when nothing of the chain is resident on its home slot
    /// (everything already off-loaded) — the loop skips the tick.
    bool has_resident = true;
    Gbps offered{0.0};        ///< trailing-window ingress estimate
    UtilizationReport util;   ///< analytic utilisation of the resident view
    /// Live shared-slot overload (co-homed chains can saturate a slot while
    /// each chain sits below the trigger).  Always false on a one-slot rack.
    bool slot_hot = false;
    std::size_t server = 0;   ///< home slot id, stamped into events
  };

  /// A policy evaluation against the sensor's chain view.  Step indices in
  /// `plan` are REAL chain indices (sensors working on a reduced view remap
  /// before returning).
  struct Planned {
    MigrationPlan plan;
    /// Post-plan utilisation of the view (feasible, non-empty plans only).
    double projected_smartnic = 0.0;
    double projected_cpu = 0.0;
  };

  /// What the loop reads: offered load and the ChainAnalyzer view of each
  /// managed chain.  Implementations must not mutate simulation state.
  class Sensor {
   public:
    virtual ~Sensor() = default;
    /// Current reading for chain `c`.
    [[nodiscard]] virtual Sample sense(std::size_t c) const = 0;
    /// Human narration of an overload reading (kTriggered event detail).
    [[nodiscard]] virtual std::string describe_overload(std::size_t c,
                                                        const Sample& sample) const = 0;
    /// Runs `policy` against the same view sense() evaluated.
    [[nodiscard]] virtual Planned plan(std::size_t c, const MigrationPolicy& policy,
                                       Gbps offered) const = 0;
  };

  /// What the loop drives: plan execution and the scale-out fallback.
  class Actuator {
   public:
    virtual ~Actuator() = default;
    /// True while chain `c` has a migration or cross-server move executing.
    [[nodiscard]] virtual bool in_flight(std::size_t c) const = 0;
    /// Executes `plan` loss-free; must invoke `done` exactly once when the
    /// last step completes.
    virtual void execute(std::size_t c, const MigrationPlan& plan,
                         std::function<void()> done) = 0;
    /// Push-aside cannot relieve the hot spot (`reason`): move a border NF
    /// to another server, or record an OpenNF-style request where there is
    /// none.  Implementations emit their own kInfeasible / kScaleOut /
    /// kCrossServerMove events via emit()/complete_action().
    virtual void scale_out(std::size_t c, const std::string& reason, Gbps offered) = 0;
  };

  /// `sensor` and `actuator` must outlive the plane (they are normally the
  /// owning controller itself).  `policy` plans relieving migrations for
  /// every chain unless a per-chain override is installed.
  ControlPlane(SimulationKernel& kernel, Sensor& sensor, Actuator& actuator,
               std::size_t num_chains, std::unique_ptr<MigrationPolicy> policy,
               ControlPlaneOptions options = {});

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Bidirectional placement: installs the calm-direction policy, which
  /// runs whenever a chain's SmartNIC sits *below* `below`, returning
  /// pushed-aside vNFs.  Keep `below` well under the overload trigger to
  /// avoid migration ping-pong.
  void set_scale_in_policy(std::unique_ptr<MigrationPolicy> policy, double below) {
    scale_in_policy_ = std::move(policy);
    scale_in_below_ = below;
  }

  /// Per-chain policy override (heterogeneous fleets); nullptr restores the
  /// shared default.
  void set_chain_policy(std::size_t c, std::unique_ptr<MigrationPolicy> policy);

  /// The policy that plans for chain `c` (override or shared default).
  [[nodiscard]] const MigrationPolicy& policy(std::size_t c) const;

  /// Registers the periodic check with the kernel.  Call before the run.
  void arm();

  [[nodiscard]] const std::vector<ControlEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t num_chains() const noexcept { return chains_.size(); }

  /// Appends `event` stamped with the current simulated time.  Public so
  /// Actuator implementations can record their asynchronous outcomes.
  void emit(ControlEvent event);

  /// Marks chain `c`'s action finished: anchors the cooldown at the current
  /// simulated time.  Actuators call this from completion callbacks of
  /// asynchronous moves.
  void complete_action(std::size_t c);

  /// True while chain `c` has an action in flight or its cooldown running —
  /// what the datacenter orchestrator checks on a rack's plane before
  /// leasing the same chain.  Safe only when this plane's kernel is
  /// quiescent (single-kernel mode, or at an epoch barrier).
  [[nodiscard]] bool chain_busy_or_cooling(std::size_t c) const;

 private:
  struct ChainState {
    SimTime last_action_done = SimTime::nanoseconds(-1);  ///< <0: never acted
  };

  /// One sweep over all chains: what the periodic tick runs.
  void check_all();
  void check(std::size_t c);

  SimulationKernel& kernel_;
  Sensor& sensor_;
  Actuator& actuator_;
  std::unique_ptr<MigrationPolicy> policy_;
  std::unique_ptr<MigrationPolicy> scale_in_policy_;
  double scale_in_below_ = 0.0;  ///< SmartNIC level the scale-in policy runs under
  std::vector<std::unique_ptr<MigrationPolicy>> chain_policies_;  ///< overrides
  ControlPlaneOptions options_;
  std::vector<ChainState> chains_;
  std::vector<ControlEvent> events_;
};

}  // namespace pam
