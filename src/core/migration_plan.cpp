#include "core/migration_plan.hpp"

#include <stdexcept>

#include "common/strings.hpp"

namespace pam {

ServiceChain MigrationPlan::apply_to(const ServiceChain& chain) const {
  ServiceChain out = chain;
  for (const auto& step : steps) {
    if (step.node_index >= out.size()) {
      throw std::invalid_argument(
          format("plan step references node %zu beyond chain size %zu",
                 step.node_index, out.size()));
    }
    if (out.location_of(step.node_index) != step.from) {
      throw std::invalid_argument(
          format("plan step for '%s' expects location %s but chain has %s",
                 step.nf_name.c_str(),
                 std::string(to_string(step.from)).c_str(),
                 std::string(to_string(out.location_of(step.node_index))).c_str()));
    }
    out.set_location(step.node_index, step.to);
  }
  return out;
}

Deployment MigrationPlan::apply_to(const Deployment& deployment) const {
  Deployment out = deployment;
  for (const auto& step : steps) {
    out.at(step.chain).chain.set_location(step.node_index, step.to);
  }
  return out;
}

int MigrationPlan::total_crossing_delta() const noexcept {
  int total = 0;
  for (const auto& step : steps) {
    total += step.crossing_delta;
  }
  return total;
}

std::string MigrationPlan::describe() const {
  std::string out = format("%s plan: ", policy_name.c_str());
  if (!feasible) {
    out += "INFEASIBLE (" + infeasibility_reason + ")";
    return out;
  }
  if (steps.empty()) {
    out += "no migration needed";
    return out;
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& s = steps[i];
    out += format("%s%s %s->%s (crossings %+d)", i ? ", " : "",
                  s.nf_name.c_str(), std::string(to_string(s.from)).c_str(),
                  std::string(to_string(s.to)).c_str(), s.crossing_delta);
  }
  return out;
}

}  // namespace pam
