#include "control/control_plane.hpp"

#include <utility>

namespace pam {

namespace {

std::vector<std::string> moved_names(const MigrationPlan& plan) {
  std::vector<std::string> out;
  out.reserve(plan.steps.size());
  for (const auto& step : plan.steps) {
    out.push_back(step.nf_name);
  }
  return out;
}

}  // namespace

std::string_view to_string(ControlEvent::Kind kind) noexcept {
  switch (kind) {
    case ControlEvent::Kind::kTriggered: return "triggered";
    case ControlEvent::Kind::kPlanned: return "planned";
    case ControlEvent::Kind::kMigrated: return "migrated";
    case ControlEvent::Kind::kInfeasible: return "infeasible";
    case ControlEvent::Kind::kScaleOut: return "scale-out";
    case ControlEvent::Kind::kScaleIn: return "scale-in";
    case ControlEvent::Kind::kCrossServerMove: return "cross-server-move";
    case ControlEvent::Kind::kEvacuated: return "evacuated";
    case ControlEvent::Kind::kCrossRackMove: return "cross_rack_move";
  }
  return "?";
}

std::optional<ControlEvent::Kind> control_event_kind_from_string(
    std::string_view name) noexcept {
  for (const ControlEvent::Kind kind : all_control_event_kinds()) {
    if (name == to_string(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

const std::vector<ControlEvent::Kind>& all_control_event_kinds() {
  static const std::vector<ControlEvent::Kind> kinds = {
      ControlEvent::Kind::kTriggered,      ControlEvent::Kind::kPlanned,
      ControlEvent::Kind::kMigrated,       ControlEvent::Kind::kInfeasible,
      ControlEvent::Kind::kScaleOut,       ControlEvent::Kind::kScaleIn,
      ControlEvent::Kind::kCrossServerMove, ControlEvent::Kind::kEvacuated,
      ControlEvent::Kind::kCrossRackMove,
  };
  return kinds;
}

ControlPlane::ControlPlane(SimulationKernel& kernel, Sensor& sensor,
                           Actuator& actuator, std::size_t num_chains,
                           std::unique_ptr<MigrationPolicy> policy,
                           ControlPlaneOptions options)
    : kernel_(kernel),
      sensor_(sensor),
      actuator_(actuator),
      policy_(std::move(policy)),
      chain_policies_(num_chains),
      options_(options),
      chains_(num_chains) {}

void ControlPlane::set_chain_policy(std::size_t c,
                                    std::unique_ptr<MigrationPolicy> policy) {
  chain_policies_.at(c) = std::move(policy);
}

const MigrationPolicy& ControlPlane::policy(std::size_t c) const {
  const auto& override_policy = chain_policies_.at(c);
  return override_policy != nullptr ? *override_policy : *policy_;
}

void ControlPlane::arm() {
  kernel_.schedule_periodic(options_.first_check, options_.period,
                            [this] { check_all(); });
}

void ControlPlane::check_all() {
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    check(c);
  }
}

void ControlPlane::emit(ControlEvent event) {
  event.at = kernel_.now();
  events_.push_back(std::move(event));
}

void ControlPlane::complete_action(std::size_t c) {
  chains_.at(c).last_action_done = kernel_.now();
}

bool ControlPlane::chain_busy_or_cooling(std::size_t c) const {
  if (actuator_.in_flight(c)) {
    return true;
  }
  const ChainState& state = chains_.at(c);
  return state.last_action_done.ns() >= 0 &&
         kernel_.now() - state.last_action_done < options_.cooldown;
}

void ControlPlane::check(std::size_t c) {
  if (chain_busy_or_cooling(c)) {
    return;  // one action at a time per chain, then a quiet cooldown
  }

  const Sample sample = sensor_.sense(c);
  if (!sample.has_resident) {
    return;  // everything already off-loaded; nothing left to relieve
  }
  const bool chain_hot = sample.util.smartnic >= options_.trigger_utilization;
  if (!chain_hot && !sample.slot_hot) {
    // Calm direction: pull pushed-aside vNFs back when well under the
    // trigger and a scale-in policy is installed.
    if (scale_in_policy_ != nullptr &&
        sample.util.smartnic < scale_in_below_) {
      Planned back = sensor_.plan(c, *scale_in_policy_, sample.offered);
      if (back.plan.feasible && !back.plan.empty()) {
        ControlEvent planned;
        planned.kind = ControlEvent::Kind::kScaleIn;
        planned.chain = c;
        planned.server = sample.server;
        planned.moved_nfs = moved_names(back.plan);
        planned.smartnic_utilization = back.projected_smartnic;
        planned.cpu_utilization = back.projected_cpu;
        planned.detail = back.plan.describe();
        emit(std::move(planned));
        actuator_.execute(c, back.plan, [this, c, server = sample.server] {
          complete_action(c);
          ControlEvent done;
          done.kind = ControlEvent::Kind::kMigrated;
          done.chain = c;
          done.server = server;
          done.detail = "scale-in complete";
          emit(std::move(done));
        });
      }
    }
    return;
  }

  ControlEvent triggered;
  triggered.kind = ControlEvent::Kind::kTriggered;
  triggered.chain = c;
  triggered.server = sample.server;
  triggered.smartnic_utilization = sample.util.smartnic;
  triggered.cpu_utilization = sample.util.cpu;
  triggered.detail = sensor_.describe_overload(c, sample);
  emit(std::move(triggered));

  Planned action = sensor_.plan(c, policy(c), sample.offered);
  if (action.plan.feasible && !action.plan.empty()) {
    ControlEvent planned;
    planned.kind = ControlEvent::Kind::kPlanned;
    planned.chain = c;
    planned.server = sample.server;
    planned.moved_nfs = moved_names(action.plan);
    planned.smartnic_utilization = action.projected_smartnic;
    planned.cpu_utilization = action.projected_cpu;
    planned.detail = action.plan.describe();
    emit(std::move(planned));
    actuator_.execute(c, action.plan, [this, c, server = sample.server] {
      complete_action(c);
      ControlEvent done;
      done.kind = ControlEvent::Kind::kMigrated;
      done.chain = c;
      done.server = server;
      done.detail = "migration complete";
      emit(std::move(done));
    });
    return;
  }
  if (action.plan.feasible && action.plan.empty() && !sample.slot_hot) {
    return;  // policy saw no useful move and no emergency
  }
  // Both devices hot (or the slot is saturated by co-homed chains): the
  // paper defers to OpenNF-style scale-out.  What that means — a
  // cross-server border-NF move, or a recorded request on a one-slot rack —
  // is the actuator's business.
  const std::string reason = action.plan.feasible
                                 ? "slot saturated by co-homed chains"
                                 : action.plan.infeasibility_reason;
  actuator_.scale_out(c, reason, sample.offered);
}

}  // namespace pam
