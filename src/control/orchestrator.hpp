// The datacenter tier of the control hierarchy.
//
// FleetController closes the scaling loop inside one rack; the
// DatacenterOrchestrator closes it across racks.  It makes the rack tier's
// push-aside decision — pick_border_move, the one fit-aware target scan —
// but over every slot outside the home rack, and its act is a cross-rack
// lease: a border NF of a chain homed on a saturated rack moves to the
// least-loaded slot of another rack (ControlEvent kind `cross_rack_move`),
// where packets reach it over the epoch-synchronized shard fabric.  It has
// no knobs of its own: it reads the racks' FleetControllerOptions (period,
// first check, cooldown, target ceiling) and the shared kRateWindow and
// kRemoteMoveCost constants.
//
// Determinism contract: the orchestrator runs only at epoch barriers (the
// DatacenterSimulator's barrier hook), when every shard kernel is parked at
// the same simulated time.  Every `period` it visits the chains in global
// order; decisions ride on lexicographically ordered (load, slot) scans of
// barrier-time state, so a run's lease history is identical for threads=1
// and threads=N.  Lease commits are deferred by the migration cost, rounded
// up to at least one epoch, and applied at a later barrier — never
// mid-epoch, so no shard observes a placement change while running.
//
// Hierarchy etiquette: the orchestrator never races a rack controller on a
// chain.  It skips a chain whose home rack's control plane is busy or
// cooling on it, and while one of its own leases is pending or cooling it
// holds the rack controller off through FleetController::set_external_hold
// — using only barrier-published state, so rack threads can evaluate the
// hold mid-epoch without ever touching another shard's clock.

#pragma once

#include <cstddef>
#include <vector>

#include "control/fleet_controller.hpp"
#include "sim/datacenter_simulator.hpp"

namespace pam {

class DatacenterOrchestrator final {
 public:
  /// `racks[r]` is rack r's FleetController, one per rack, built with
  /// `options`; the orchestrator checks every `period` and holds a chain
  /// for `cooldown` after a lease, and a lease target must stay at or
  /// below `target_max_load` after absorbing the NF.  Installs the
  /// mutual-hold predicate into every controller.
  DatacenterOrchestrator(DatacenterSimulator& dc,
                         std::vector<FleetController*> racks,
                         const FleetControllerOptions& options);

  DatacenterOrchestrator(const DatacenterOrchestrator&) = delete;
  DatacenterOrchestrator& operator=(const DatacenterOrchestrator&) = delete;

  /// Barrier driver: wire into DatacenterSimulator::set_barrier_hook.
  /// Runs the periodic check at its own cadence (skipped while draining)
  /// and commits leases that have completed their migration cost.
  void on_barrier(SimTime t, bool draining);

  /// True while a lease is still pending commit — wire into
  /// DatacenterSimulator::set_drain_gate so the epoch loop keeps cycling
  /// until every decided move has landed.
  [[nodiscard]] bool has_pending() const noexcept { return !pending_.empty(); }

  /// Mutual-hold probe for rack controllers: true while chain `c` (global
  /// id) has a lease pending or is cooling down after one.  Reads only
  /// barrier-published state; callable from shard threads mid-epoch.
  [[nodiscard]] bool holds(std::size_t c) const;

  /// Every decision, stamped with its barrier time.
  [[nodiscard]] const std::vector<ControlEvent>& events() const noexcept {
    return events_;
  }
  /// Committed cross-rack leases.
  [[nodiscard]] std::size_t cross_rack_moves() const noexcept {
    return cross_rack_moves_;
  }

 private:
  struct PendingLease {
    std::size_t chain = 0;
    std::size_t node = 0;
    std::size_t target = 0;  ///< global slot
    SimTime commit_at;
  };

  /// True when every alive slot of rack `r` has its hottest device at or
  /// above target_max_load — intra-rack scale-out can no longer relieve the
  /// rack, which is the orchestrator's trigger.
  [[nodiscard]] bool rack_pressured(std::size_t r) const;

  /// One sweep over the chains in global order: triggers and leases for
  /// every chain that is not held, not owned by its rack controller, and
  /// homed on a pressured rack.
  void check_all(SimTime t);
  /// Picks a border NF of chain `c` and a slot outside its home rack, and
  /// pauses the NF until the lease commits.
  void lease(std::size_t c, Gbps offered, SimTime t);
  void commit_due(SimTime t);
  void emit(SimTime t, ControlEvent event);

  DatacenterSimulator& dc_;
  std::vector<FleetController*> racks_;
  FleetControllerOptions options_;
  std::vector<PendingLease> pending_;     ///< barrier-mutated, in decide order
  std::vector<SimTime> cooling_until_;    ///< per chain; barrier-mutated
  std::vector<ControlEvent> events_;
  SimTime last_barrier_ = SimTime::zero();
  SimTime next_check_;
  std::size_t cross_rack_moves_ = 0;
};

}  // namespace pam
