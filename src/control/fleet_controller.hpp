// The scaling controller, for a rack of any size.
//
// "The network administrators can periodically query the load of SmartNIC
// and CPU and execute the PAM border vNF selection algorithm" — this class
// runs that loop for every chain homed on one rack.  The loop itself —
// period, trigger, cooldown, in-flight tracking, typed ControlEvent log —
// is ControlPlane's; this class is the rack specialisation:
//
//   Sensor    — per chain: trailing-window ingress rate + the rack's
//               ChainAnalyzer over the chain's *resident* view (off-loaded
//               nodes no longer burn home capacity), plus the slot's live
//               device load (co-homed chains can saturate a shared SmartNIC
//               while every individual chain sits below the trigger)
//   Actuator  — feasible plans run on the chain's own loss-free
//               MigrationEngine; infeasible ones trigger cross-server
//               scale-out: pick a crossing-safe SmartNIC border NF (Step 1
//               of PAM) and the least-loaded target slot that can absorb
//               it below `target_max_load` (pick_border_move, shared with
//               the datacenter tier), and move it there loss-free
//               (pause -> transfer over the rack fabric -> re-bind ->
//               resume)
//
// A one-slot rack — how timeline scenarios, the examples and the tests run
// a single chain — has no other slot to push a border NF to.  There only
// the chain's own demand triggers the loop, and an infeasible plan records
// an OpenNF-style scale-out request, once per chain ("the network operator
// must start another instance").
//
// Policies come from the PolicyRegistry: one shared default plus optional
// per-chain overrides (heterogeneous fleets), both installable through the
// scenario layer's [policy] / per-chain `policy` keys.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/chain_analyzer.hpp"
#include "control/control_plane.hpp"
#include "migration/migration_engine.hpp"
#include "sim/cluster_simulator.hpp"

namespace pam {

/// Pause-to-resume cost of one NF move off its home slot: a cross-server
/// move or evacuation over the rack fabric, or a cross-rack lease over the
/// datacenter fabric (state transfer + control-plane setup; coarser than
/// the per-blob PCIe model the single-server engine uses).
inline constexpr SimTime kRemoteMoveCost = SimTime::milliseconds(1.0);

/// The shared loop's knobs plus the target ceiling, for the rack tier and
/// the datacenter orchestrator above it alike.
struct FleetControllerOptions : ControlPlaneOptions {
  /// A target slot qualifies only while its hottest device is below this.
  double target_max_load = 0.9;
};

/// A border NF chosen to be pushed aside to another slot.
struct BorderMove {
  std::size_t node = 0;    ///< chain node index
  std::size_t slot = 0;    ///< target slot, in the caller's numbering
  double projected = 0.0;  ///< target's hottest-device load after the move
};

/// PAM's push-aside at fleet scale, the one target scan both scale-out
/// tiers and failure evacuation share.  For each `candidates` node in
/// order (SmartNIC border NFs; one with no SmartNIC capacity is skipped,
/// which no chain spec can build), projects its SmartNIC demand at
/// `offered` onto every slot in [0, slots) and takes the least-loaded slot
/// whose hottest device stays at or below `target_max_load` after
/// absorbing it — ties go to the lowest slot, so the choice is
/// deterministic.  `load(s)` is slot s's device utilisation, or nullopt for
/// a slot the caller excludes (home, dead).  The first candidate that fits
/// anywhere wins; nullopt when none does.  At 0 Gbps with an infinite
/// ceiling this is the plain least-loaded scan evacuation needs.
[[nodiscard]] std::optional<BorderMove> pick_border_move(
    const ServiceChain& chain, const std::vector<std::size_t>& candidates,
    Gbps offered, double target_max_load, std::size_t slots,
    const std::function<std::optional<UtilizationReport>(std::size_t)>& load);

class FleetController final : private ControlPlane::Sensor,
                              private ControlPlane::Actuator {
 public:
  /// `policy` plans single-server migrations for every chain without a
  /// per-chain override (stateless policies — all of core's — are safe to
  /// share).
  FleetController(ClusterSimulator& cluster, std::unique_ptr<MigrationPolicy> policy,
                  FleetControllerOptions options = {});

  /// Per-chain policy override (heterogeneous fleets); nullptr restores the
  /// shared default.  Call before arm().
  void set_chain_policy(std::size_t c, std::unique_ptr<MigrationPolicy> policy) {
    plane_.set_chain_policy(c, std::move(policy));
  }

  /// Registers the periodic fleet check with the shared kernel.  Call
  /// before DatacenterSimulator::run().
  void arm() { plane_.arm(); }

  /// Failure response: evacuates every non-paused NF bound to `server` to
  /// the least-loaded surviving slot (pick_border_move with no ceiling),
  /// loss-free (pause -> fabric transfer -> re-bind -> flush), emitting one
  /// kEvacuated event per NF.  Survival outranks the SLO, so evacuation
  /// ignores target_max_load.  Call after ClusterSimulator::fail_server(
  /// server); NFs already paused by an in-flight move are handled by that
  /// move's own dead-target abort.
  void on_server_failed(std::size_t server);

  [[nodiscard]] const std::vector<ControlEvent>& events() const noexcept {
    return plane_.events();
  }
  /// Completed single-server (push-aside) migrations across all chains.
  [[nodiscard]] std::size_t migrations_executed() const noexcept;
  /// Chain `c`'s single-server migration engine (its records).
  [[nodiscard]] const MigrationEngine& engine(std::size_t c) const {
    return *chains_.at(c).engine;
  }
  /// Completed cross-server border-NF moves.
  [[nodiscard]] std::size_t scale_out_moves() const noexcept {
    return scale_out_moves_;
  }
  /// Completed failure evacuations (one per NF moved off a dead slot).
  [[nodiscard]] std::size_t evacuations() const noexcept { return evacuations_; }

  /// Installs an external hold: while `hold(c)` returns true the loop treats
  /// chain `c` as having an action in flight.  The datacenter orchestrator
  /// uses this so a cross-rack lease and a rack-local move never race on the
  /// same chain.  The predicate is called from this rack's shard thread, so
  /// it must read only barrier-published state.
  void set_external_hold(std::function<bool(std::size_t)> hold) {
    external_hold_ = std::move(hold);
  }
  /// The shared loop: the orchestrator asks it chain_busy_or_cooling, and
  /// timeline runs install the calm-direction policy on it.
  [[nodiscard]] ControlPlane& plane() noexcept { return plane_; }

 private:
  struct ChainState {
    std::unique_ptr<MigrationEngine> engine;
    /// Concurrent cross-server transfers (scale-out plus evacuations — a
    /// server failure can put several of one chain's NFs in flight at once).
    std::size_t remote_moves_in_flight = 0;
    /// One-slot rack: the scale-out request is already recorded.
    bool scale_out_requested = false;
  };

  // ControlPlane::Sensor
  [[nodiscard]] ControlPlane::Sample sense(std::size_t c) const override;
  [[nodiscard]] std::string describe_overload(
      std::size_t c, const ControlPlane::Sample& sample) const override;
  [[nodiscard]] ControlPlane::Planned plan(std::size_t c,
                                           const MigrationPolicy& policy,
                                           Gbps offered) const override;

  // ControlPlane::Actuator
  [[nodiscard]] bool in_flight(std::size_t c) const override;
  void execute(std::size_t c, const MigrationPlan& plan,
               std::function<void()> done) override;
  void scale_out(std::size_t c, const std::string& reason, Gbps offered) override;

  /// The chain restricted to nodes still bound to the home slot, plus the
  /// mapping from reduced indices back to real ones.  Off-loaded nodes no
  /// longer consume home capacity, so they must not count against it.
  struct HomeView {
    ServiceChain chain{""};
    std::vector<std::size_t> index_map;  ///< reduced index -> real index
  };

  /// Builds the home view of chain `c` from its current placement.
  [[nodiscard]] HomeView home_view(std::size_t c) const;

  /// Slot `s`'s device loads as a move target for pick_border_move:
  /// nullopt for `away` (the slot the NF leaves) and for a dead slot.
  [[nodiscard]] std::optional<UtilizationReport> target_load(std::size_t s,
                                                             std::size_t away) const;

  ClusterSimulator& cluster_;
  FleetControllerOptions options_;
  ChainAnalyzer analyzer_;  ///< every slot has the rack's one Server model
  std::vector<ChainState> chains_;
  /// Finishes one remote transfer of chain `c`: re-bind (unless the target
  /// died mid-flight), resume, anchor the cooldown, emit `kind`.
  void complete_remote_move(std::size_t c, std::size_t node, std::size_t target,
                            ControlEvent::Kind kind);

  std::function<bool(std::size_t)> external_hold_;  ///< orchestrator veto
  std::size_t scale_out_moves_ = 0;
  std::size_t evacuations_ = 0;
  ControlPlane plane_;  ///< last member: its Sensor/Actuator are *this
};

}  // namespace pam
