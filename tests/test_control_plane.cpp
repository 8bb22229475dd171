// ControlPlane unit tests: the shared sense -> decide -> act loop driven by
// scripted Sensor/Actuator fakes on a bare SimulationKernel — no traffic, no
// chains, just the loop semantics every controller inherits: trigger,
// cooldown, in-flight suppression, scale-in arming, and the infeasible ->
// scale-out handoff.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "control/control_plane.hpp"
#include "core/naive_policy.hpp"
#include "sim/simulation_kernel.hpp"

namespace pam {
namespace {

MigrationPlan feasible_plan() {
  MigrationPlan plan;
  plan.policy_name = "scripted";
  MigrationStep step;
  step.node_index = 0;
  step.nf_name = "NF";
  plan.steps.push_back(step);
  return plan;
}

MigrationPlan infeasible_plan(std::string reason) {
  MigrationPlan plan;
  plan.policy_name = "scripted";
  plan.feasible = false;
  plan.infeasibility_reason = std::move(reason);
  return plan;
}

/// Sensor whose readings the test scripts directly.
class ScriptedSensor final : public ControlPlane::Sensor {
 public:
  double smartnic = 0.0;
  bool slot_hot = false;
  bool has_resident = true;
  MigrationPlan main_plan;      ///< returned for any non-scale-in policy
  MigrationPlan scale_in_plan;  ///< returned when `scale_in_marker` asks
  const MigrationPolicy* scale_in_marker = nullptr;
  mutable int plans_requested = 0;
  /// chain index -> the policy instance the loop planned with last.
  mutable std::map<std::size_t, const MigrationPolicy*> planned_with;

  [[nodiscard]] ControlPlane::Sample sense(std::size_t /*c*/) const override {
    ControlPlane::Sample sample;
    sample.has_resident = has_resident;
    sample.util.smartnic = smartnic;
    sample.slot_hot = slot_hot;
    return sample;
  }

  [[nodiscard]] std::string describe_overload(
      std::size_t /*c*/, const ControlPlane::Sample& /*sample*/) const override {
    return "scripted overload";
  }

  [[nodiscard]] ControlPlane::Planned plan(std::size_t c,
                                           const MigrationPolicy& policy,
                                           Gbps /*offered*/) const override {
    ++plans_requested;
    planned_with[c] = &policy;
    ControlPlane::Planned out;
    out.plan = &policy == scale_in_marker ? scale_in_plan : main_plan;
    return out;
  }
};

/// Actuator that counts calls and can hold completions open.
class ScriptedActuator final : public ControlPlane::Actuator {
 public:
  bool hold_done = false;  ///< keep the migration "in flight" until released
  bool busy = false;
  std::function<void()> pending;
  int executes = 0;
  int scale_outs = 0;
  std::string last_reason;

  [[nodiscard]] bool in_flight(std::size_t /*c*/) const override { return busy; }

  void execute(std::size_t /*c*/, const MigrationPlan& /*plan*/,
               std::function<void()> done) override {
    ++executes;
    if (hold_done) {
      busy = true;
      pending = std::move(done);
    } else {
      done();
    }
  }

  void scale_out(std::size_t /*c*/, const std::string& reason,
                 Gbps /*offered*/) override {
    ++scale_outs;
    last_reason = reason;
  }
};

ControlPlaneOptions fast_loop() {
  ControlPlaneOptions opts;
  opts.period = SimTime::milliseconds(10);
  opts.first_check = SimTime::milliseconds(10);
  opts.cooldown = SimTime::milliseconds(15);
  return opts;
}

std::size_t count_kind(const std::vector<ControlEvent>& events,
                       ControlEvent::Kind kind) {
  std::size_t n = 0;
  for (const auto& event : events) {
    n += event.kind == kind ? 1 : 0;
  }
  return n;
}

TEST(ControlPlane, TriggersPlansAndCompletesFeasibleMigration) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.2;
  sensor.main_plan = feasible_plan();

  ControlPlaneOptions opts = fast_loop();
  opts.cooldown = SimTime::seconds(10);  // act once, then hold
  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), opts};
  plane.arm();
  kernel.run(SimTime::milliseconds(100), SimTime::zero());

  EXPECT_EQ(actuator.executes, 1);
  ASSERT_EQ(plane.events().size(), 3u);
  EXPECT_EQ(plane.events()[0].kind, ControlEvent::Kind::kTriggered);
  EXPECT_EQ(plane.events()[0].detail, "scripted overload");
  EXPECT_DOUBLE_EQ(plane.events()[0].smartnic_utilization, 1.2);
  EXPECT_EQ(plane.events()[1].kind, ControlEvent::Kind::kPlanned);
  ASSERT_EQ(plane.events()[1].moved_nfs.size(), 1u);
  EXPECT_EQ(plane.events()[1].moved_nfs[0], "NF");
  EXPECT_EQ(plane.events()[2].kind, ControlEvent::Kind::kMigrated);
  // First check fired at first_check, instantly completed.
  EXPECT_EQ(plane.events()[0].at, SimTime::milliseconds(10));
  EXPECT_EQ(plane.events()[2].at, SimTime::milliseconds(10));
}

TEST(ControlPlane, CooldownSuppressesRetrigger) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.2;
  sensor.main_plan = feasible_plan();

  // period 10, cooldown 35: after a completed action at t, checks at t+10,
  // t+20, t+30 are quiet; t+40 re-triggers.  100 ms horizon -> acts at 10,
  // 50, 90.
  ControlPlaneOptions opts = fast_loop();
  opts.cooldown = SimTime::milliseconds(35);
  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), opts};
  plane.arm();
  kernel.run(SimTime::milliseconds(100), SimTime::zero());

  EXPECT_EQ(actuator.executes, 3);
  EXPECT_EQ(count_kind(plane.events(), ControlEvent::Kind::kTriggered), 3u);
  EXPECT_EQ(plane.events()[3].at, SimTime::milliseconds(50));
}

TEST(ControlPlane, InFlightMigrationSuppressesRetrigger) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.2;
  sensor.main_plan = feasible_plan();
  actuator.hold_done = true;  // the migration never completes during the run

  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), fast_loop()};
  plane.arm();
  kernel.run(SimTime::milliseconds(100), SimTime::zero());

  // Overload persisted for 10 checks, but with the engine busy the loop
  // must not re-trigger or re-plan.
  EXPECT_EQ(actuator.executes, 1);
  EXPECT_EQ(count_kind(plane.events(), ControlEvent::Kind::kTriggered), 1u);
  ASSERT_TRUE(actuator.pending != nullptr);
  actuator.pending();  // releasing it completes the action exactly once
  EXPECT_EQ(count_kind(plane.events(), ControlEvent::Kind::kMigrated), 1u);
}

TEST(ControlPlane, ScaleInArmsOnlyBelowThresholdWithPolicyInstalled) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 0.2;
  sensor.scale_in_plan = feasible_plan();

  ControlPlaneOptions opts = fast_loop();
  opts.cooldown = SimTime::seconds(10);
  auto scale_in = std::make_unique<NoMigrationPolicy>();
  sensor.scale_in_marker = scale_in.get();
  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), opts};
  plane.set_scale_in_policy(std::move(scale_in), 0.5);
  plane.arm();
  kernel.run(SimTime::milliseconds(100), SimTime::zero());

  EXPECT_EQ(actuator.executes, 1);
  ASSERT_EQ(plane.events().size(), 2u);
  EXPECT_EQ(plane.events()[0].kind, ControlEvent::Kind::kScaleIn);
  EXPECT_EQ(plane.events()[1].kind, ControlEvent::Kind::kMigrated);
  EXPECT_EQ(plane.events()[1].detail, "scale-in complete");
}

TEST(ControlPlane, NoScaleInWithoutPolicyOrAboveThreshold) {
  // No policy installed: a calm chain alone must not act.
  {
    SimulationKernel kernel;
    ScriptedSensor sensor;
    ScriptedActuator actuator;
    sensor.smartnic = 0.2;
    sensor.scale_in_plan = feasible_plan();
    ControlPlane plane{kernel, sensor, actuator, 1,
                       std::make_unique<NoMigrationPolicy>(), fast_loop()};
    plane.arm();
    kernel.run(SimTime::milliseconds(60), SimTime::zero());
    EXPECT_EQ(actuator.executes, 0);
    EXPECT_TRUE(plane.events().empty());
  }
  // Policy installed, but the SmartNIC sits in the hysteresis band between
  // scale_in_below and the trigger: also quiet.
  {
    SimulationKernel kernel;
    ScriptedSensor sensor;
    ScriptedActuator actuator;
    sensor.smartnic = 0.7;
    sensor.scale_in_plan = feasible_plan();
    auto scale_in = std::make_unique<NoMigrationPolicy>();
    sensor.scale_in_marker = scale_in.get();
    ControlPlane plane{kernel, sensor, actuator, 1,
                       std::make_unique<NoMigrationPolicy>(), fast_loop()};
    plane.set_scale_in_policy(std::move(scale_in), 0.5);
    plane.arm();
    kernel.run(SimTime::milliseconds(60), SimTime::zero());
    EXPECT_EQ(actuator.executes, 0);
    EXPECT_TRUE(plane.events().empty());
  }
}

TEST(ControlPlane, InfeasiblePlanRoutesToScaleOutWithReason) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.3;
  sensor.main_plan = infeasible_plan("both devices hot");

  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), fast_loop()};
  plane.arm();
  kernel.run(SimTime::milliseconds(50), SimTime::zero());

  EXPECT_GE(actuator.scale_outs, 1);
  EXPECT_EQ(actuator.last_reason, "both devices hot");
  EXPECT_EQ(actuator.executes, 0);
}

TEST(ControlPlane, SlotHotWithEmptyPlanStillScalesOut) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 0.3;   // the chain itself is calm…
  sensor.slot_hot = true;  // …but co-homed chains saturated the slot
  // main_plan default: feasible + empty

  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), fast_loop()};
  plane.arm();
  kernel.run(SimTime::milliseconds(30), SimTime::zero());

  EXPECT_GE(actuator.scale_outs, 1);
  EXPECT_EQ(actuator.last_reason, "slot saturated by co-homed chains");
}

TEST(ControlPlane, EmptySampleSkipsTheTick) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.5;
  sensor.has_resident = false;  // everything off-loaded
  sensor.main_plan = feasible_plan();

  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), fast_loop()};
  plane.arm();
  kernel.run(SimTime::milliseconds(50), SimTime::zero());

  EXPECT_TRUE(plane.events().empty());
  EXPECT_EQ(sensor.plans_requested, 0);
}

TEST(ControlPlane, PerChainPolicyOverrides) {
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.2;
  sensor.main_plan = feasible_plan();

  auto shared = std::make_unique<NoMigrationPolicy>();
  auto special = std::make_unique<NoMigrationPolicy>();
  const MigrationPolicy* shared_ptr = shared.get();
  const MigrationPolicy* special_ptr = special.get();

  ControlPlaneOptions opts = fast_loop();
  opts.cooldown = SimTime::seconds(10);
  ControlPlane plane{kernel, sensor, actuator, 2, std::move(shared), opts};
  plane.set_chain_policy(1, std::move(special));
  EXPECT_EQ(&plane.policy(0), shared_ptr);
  EXPECT_EQ(&plane.policy(1), special_ptr);
  plane.arm();
  kernel.run(SimTime::milliseconds(30), SimTime::zero());

  EXPECT_EQ(sensor.planned_with.at(0), shared_ptr);
  EXPECT_EQ(sensor.planned_with.at(1), special_ptr);
  EXPECT_EQ(actuator.executes, 2);
}

TEST(ControlPlane, ExternalCompletionMidCooldownReanchorsCooldown) {
  // A fleet evacuation completes through complete_action() without the loop
  // having planned anything — e.g. the chain's server died mid-cooldown.
  // The completion must re-anchor the cooldown window, not leak through it.
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.2;
  sensor.main_plan = feasible_plan();

  // period 10, cooldown 35: the action at 10 ms alone would re-trigger at
  // 50 ms (see CooldownSuppressesRetrigger).  The external completion at
  // 25 ms pushes the next eligible check to 60 ms.
  ControlPlaneOptions opts = fast_loop();
  opts.cooldown = SimTime::milliseconds(35);
  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), opts};
  plane.arm();
  kernel.schedule_at(SimTime::milliseconds(25), [&] {
    ControlEvent evacuated;
    evacuated.kind = ControlEvent::Kind::kEvacuated;
    evacuated.chain = 0;
    evacuated.detail = "evacuation complete (scripted)";
    plane.emit(std::move(evacuated));
    plane.complete_action(0);
  });
  kernel.run(SimTime::milliseconds(80), SimTime::zero());

  EXPECT_EQ(actuator.executes, 2);
  ASSERT_EQ(count_kind(plane.events(), ControlEvent::Kind::kTriggered), 2u);
  EXPECT_EQ(plane.events()[0].at, SimTime::milliseconds(10));
  EXPECT_EQ(plane.events()[3].kind, ControlEvent::Kind::kEvacuated);
  EXPECT_EQ(plane.events()[4].kind, ControlEvent::Kind::kTriggered);
  EXPECT_EQ(plane.events()[4].at, SimTime::milliseconds(60));
}

TEST(ControlPlane, DepartedChainDoesNotArmScaleIn) {
  // A churned-out tenant reads as has_resident = false with utilisation 0 —
  // well under the scale-in threshold.  The empty sample must win: no
  // scale-in plan for a chain whose NFs are gone.
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 0.0;
  sensor.has_resident = false;
  sensor.scale_in_plan = feasible_plan();

  auto scale_in = std::make_unique<NoMigrationPolicy>();
  sensor.scale_in_marker = scale_in.get();
  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), fast_loop()};
  plane.set_scale_in_policy(std::move(scale_in), 0.5);
  plane.arm();
  kernel.run(SimTime::milliseconds(60), SimTime::zero());

  EXPECT_EQ(actuator.executes, 0);
  EXPECT_EQ(sensor.plans_requested, 0);
  EXPECT_TRUE(plane.events().empty());
}

TEST(ControlPlane, AbortedInFlightMoveReleasesLoopAfterCooldown) {
  // An in-flight cross-server move whose target dies resolves by resuming
  // in place: the actuator reports the abort, completes the action, and
  // the loop stays quiet for one cooldown before re-triggering.
  SimulationKernel kernel;
  ScriptedSensor sensor;
  ScriptedActuator actuator;
  sensor.smartnic = 1.2;
  sensor.main_plan = feasible_plan();
  actuator.hold_done = true;  // the move hangs in flight…

  ControlPlane plane{kernel, sensor, actuator, 1,
                     std::make_unique<NoMigrationPolicy>(), fast_loop()};
  plane.arm();
  kernel.schedule_at(SimTime::milliseconds(37), [&] {
    // …until the target server dies at 37 ms and the move aborts.
    actuator.busy = false;
    ControlEvent aborted;
    aborted.kind = ControlEvent::Kind::kInfeasible;
    aborted.chain = 0;
    aborted.detail = "in-flight move aborted: target server 1 died";
    plane.emit(std::move(aborted));
    plane.complete_action(0);
  });
  kernel.run(SimTime::milliseconds(80), SimTime::zero());

  // In flight until 37 ms suppressed checks at 20/30; cooldown 15 ms kept
  // 40 and 50 quiet; 60 re-triggered (and the second move hangs again).
  EXPECT_EQ(actuator.executes, 2);
  ASSERT_EQ(count_kind(plane.events(), ControlEvent::Kind::kTriggered), 2u);
  const auto& events = plane.events();
  ASSERT_EQ(events.size(), 5u);  // trig, plan, abort, trig, plan
  EXPECT_EQ(events[2].kind, ControlEvent::Kind::kInfeasible);
  EXPECT_EQ(events[3].kind, ControlEvent::Kind::kTriggered);
  EXPECT_EQ(events[3].at, SimTime::milliseconds(60));
}

TEST(ControlEventKinds, NamesRoundTrip) {
  for (const ControlEvent::Kind kind : all_control_event_kinds()) {
    const auto name = to_string(kind);
    EXPECT_NE(name, "?");
    const auto parsed = control_event_kind_from_string(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(control_event_kind_from_string("frobnicated").has_value());
  EXPECT_EQ(all_control_event_kinds().size(), 9u);
  // The failure-scenario completion kind is part of the public vocabulary.
  ASSERT_TRUE(control_event_kind_from_string("evacuated").has_value());
  EXPECT_EQ(*control_event_kind_from_string("evacuated"),
            ControlEvent::Kind::kEvacuated);
  // So is the datacenter orchestrator's cross-rack lease completion.
  ASSERT_TRUE(control_event_kind_from_string("cross_rack_move").has_value());
  EXPECT_EQ(*control_event_kind_from_string("cross_rack_move"),
            ControlEvent::Kind::kCrossRackMove);
}

}  // namespace
}  // namespace pam
