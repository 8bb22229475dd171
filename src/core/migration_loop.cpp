#include "core/migration_loop.hpp"

#include <cstdint>

#include "common/strings.hpp"

namespace pam {

Deployment one_chain(const ServiceChain& chain, Gbps offered) {
  Deployment deployment;
  deployment.add(chain, offered);
  return deployment;
}

std::string nf_label(const Deployment& deployment, NfRef nf) {
  const ServiceChain& chain = deployment.at(nf.chain).chain;
  const std::string& name = chain.node(nf.node).spec.name;
  return deployment.size() > 1 ? chain.name() + "/" + name : name;
}

MigrationPlan run_moves(std::string policy_name, Deployment work,
                        const ChainAnalyzer& analyzer, const MoveRule& rule) {
  MigrationPlan out;
  out.policy_name = std::move(policy_name);
  const bool push_aside = rule.to == Location::kCpu;

  std::uint32_t crossings = 0;
  for (const DeployedChain& deployed : work.chains()) {
    crossings += deployed.chain.pcie_crossings();
  }
  const UtilizationReport initial = work.utilization(analyzer);
  out.trace.push_back(
      format("initial %s, crossings=%u", initial.describe().c_str(), crossings));
  if (push_aside && initial.smartnic < rule.limit) {
    out.trace.push_back("SmartNIC below limit; nothing to do");
    return out;
  }

  Rejected rejected;
  while (out.steps.size() < rule.max_moves) {
    const std::optional<NfRef> pick = rule.select(work, rejected, out.trace);
    if (!pick) {
      out.feasible = rule.exhausted.empty();
      out.infeasibility_reason = rule.exhausted;
      out.trace.push_back(out.feasible ? "no further candidate fits; done"
                                       : "candidates exhausted -> infeasible");
      return out;
    }
    ServiceChain& chain = work.at(pick->chain).chain;
    const std::string label = nf_label(work, *pick);

    // Step 3, constraint (1) — Eq. 2: the landing device with the NF added
    // must stay below the limit.
    const int delta = chain.crossing_delta_if_migrated(pick->node);
    chain.set_location(pick->node, rule.to);
    const UtilizationReport util = work.utilization(analyzer);
    const double landing = push_aside ? util.cpu : util.smartnic;
    if (landing >= rule.limit) {
      chain.set_location(pick->node, other(rule.to));  // undo the trial move
      out.trace.push_back(format("step 3: Eq.2 violated (%s would be %.3f >= %.2f); reject %s",
                                 std::string(to_string(rule.to)).c_str(), landing,
                                 rule.limit, label.c_str()));
      rejected.emplace(pick->chain, pick->node);
      continue;
    }

    MigrationStep step;
    step.chain = pick->chain;
    step.node_index = pick->node;
    step.nf_name = chain.node(pick->node).spec.name;
    step.from = other(rule.to);
    step.to = rule.to;
    step.crossing_delta = delta;
    out.steps.push_back(std::move(step));
    out.trace.push_back(format("migrate %s -> %s (crossings %+d, now %s)", label.c_str(),
                               std::string(to_string(rule.to)).c_str(), delta,
                               util.describe().c_str()));

    // Step 3, constraint (2) — Eq. 3: terminate once the SmartNIC, without
    // the NFs moved so far, is below the limit.
    if (push_aside && util.smartnic < rule.limit) {
      out.trace.push_back(format("Eq.3 satisfied (S=%.3f < %.2f); terminate",
                                 util.smartnic, rule.limit));
      return out;
    }
  }

  out.feasible = rule.exceeded.empty();
  out.infeasibility_reason = rule.exceeded;
  return out;
}

}  // namespace pam
