// The single-server scaling controller.
//
// "The network administrators can periodically query the load of SmartNIC
// and CPU and execute the PAM border vNF selection algorithm" — this class
// runs that loop for one chain on one box.  The loop itself (period,
// trigger, cooldown, in-flight tracking, typed ControlEvent log) lives in
// ControlPlane; Controller is the single-server specialisation:
//
//   Sensor    — trailing-window ingress rate + ChainAnalyzer utilisation of
//               the simulator's chain
//   Actuator  — hand feasible plans to the loss-free MigrationEngine; when
//               a plan is infeasible (both devices hot), record an
//               OpenNF-style scale-out request ("the network operator must
//               start another instance" — actually executing it is
//               FleetController's rack-scale job)
//
// All decisions land in the plane's typed event log, which the experiment
// layer serialises as the `control_events` JSON section.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chain/chain_analyzer.hpp"
#include "control/control_plane.hpp"
#include "migration/migration_engine.hpp"

namespace pam {

/// The single-server controller exposes exactly the shared loop's knobs.
using ControllerOptions = ControlPlaneOptions;

class Controller final : private ControlPlane::Sensor,
                         private ControlPlane::Actuator {
 public:
  Controller(ChainSimulator& sim, std::unique_ptr<MigrationPolicy> policy,
             ControllerOptions options = {});

  /// Installs the calm-direction policy, run while the SmartNIC sits below
  /// `below` (see ControlPlane::set_scale_in_policy).
  void set_scale_in_policy(std::unique_ptr<MigrationPolicy> policy, double below) {
    plane_.set_scale_in_policy(std::move(policy), below);
  }

  /// Registers the periodic check with the simulator.  Call before run().
  void arm() { plane_.arm(); }

  [[nodiscard]] const std::vector<ControlEvent>& events() const noexcept {
    return plane_.events();
  }
  [[nodiscard]] std::size_t migrations_executed() const noexcept {
    return engine_.records().size();
  }
  [[nodiscard]] const MigrationEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] bool scale_out_requested() const noexcept { return scale_out_requested_; }

 private:
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

  ChainSimulator& sim_;
  ChainAnalyzer analyzer_;
  MigrationEngine engine_;
  bool scale_out_requested_ = false;
  ControlPlane plane_;  ///< last member: its Sensor/Actuator are *this
};

}  // namespace pam
