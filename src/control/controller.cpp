#include "control/controller.hpp"

#include "common/strings.hpp"

namespace pam {

Controller::Controller(ChainSimulator& sim, std::unique_ptr<MigrationPolicy> policy,
                       ControllerOptions options)
    : sim_(sim),
      analyzer_(sim.server(), sim.calibration()),
      engine_(sim),
      plane_(sim.kernel(), *this, *this, /*num_chains=*/1, std::move(policy),
             options) {}

ControlPlane::Sample Controller::sense(std::size_t /*c*/) const {
  ControlPlane::Sample sample;
  sample.offered = sim_.observed_ingress_rate(kRateWindow);
  sample.util = analyzer_.utilization(sim_.chain(), sample.offered);
  return sample;
}

std::string Controller::describe_overload(std::size_t /*c*/,
                                          const ControlPlane::Sample& sample) const {
  return format("overload detected at %s offered: %s",
                sample.offered.to_string().c_str(), sample.util.describe().c_str());
}

ControlPlane::Planned Controller::plan(std::size_t /*c*/,
                                       const MigrationPolicy& policy,
                                       Gbps offered) const {
  ControlPlane::Planned out;
  out.plan = policy.plan(sim_.chain(), analyzer_, offered);
  if (out.plan.feasible && !out.plan.empty()) {
    const auto projected =
        analyzer_.utilization(out.plan.apply_to(sim_.chain()), offered);
    out.projected_smartnic = projected.smartnic;
    out.projected_cpu = projected.cpu;
  }
  return out;
}

bool Controller::in_flight(std::size_t /*c*/) const { return engine_.busy(); }

void Controller::execute(std::size_t /*c*/, const MigrationPlan& plan,
                         std::function<void()> done) {
  engine_.execute(plan, std::move(done));
}

void Controller::scale_out(std::size_t c, const std::string& reason,
                           Gbps /*offered*/) {
  // One box cannot provision another instance; record the decision once —
  // instance provisioning is outside the single-server data plane.
  if (scale_out_requested_) {
    return;
  }
  scale_out_requested_ = true;
  ControlEvent event;
  event.kind = ControlEvent::Kind::kScaleOut;
  event.chain = c;
  event.detail = "plan infeasible -> scale-out requested: " + reason;
  plane_.emit(std::move(event));
}

}  // namespace pam
