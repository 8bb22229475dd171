#include "core/naive_policy.hpp"

#include "core/migration_loop.hpp"

namespace pam {
namespace {

/// A naive rule: any SmartNIC-resident vNF is a candidate.  Every kept move
/// takes one off the candidate list, so the loop ends without a bound.
MoveRule naive_rule(double limit, SelectFn select) {
  MoveRule rule;
  rule.limit = limit;
  rule.exhausted = "no SmartNIC vNF can move without overloading the CPU";
  rule.select = select;
  return rule;
}

bool on_smartnic(const ServiceChain& chain, std::size_t i) {
  return chain.location_of(i) == Location::kSmartNic;
}

}  // namespace

MigrationPlan NaiveBottleneckPolicy::plan(const ServiceChain& chain,
                                          const ChainAnalyzer& analyzer,
                                          Gbps ingress_rate) const {
  // The bottleneck vNF: largest resource share on the SmartNIC.
  const SelectFn select = [](const Deployment& work, const Rejected& rejected,
                             std::vector<std::string>& /*trace*/) {
    return best_nf(work, rejected, on_smartnic, [](const DeployedChain& d, std::size_t i) {
      return d.chain.node(i).spec.utilization_at(Location::kSmartNic,
                                                 d.chain.offered_at(i, d.offered));
    });
  };
  return run_moves(name(), one_chain(chain, ingress_rate), analyzer,
                   naive_rule(limit_, select));
}

MigrationPlan NaiveMinCapacityPolicy::plan(const ServiceChain& chain,
                                           const ChainAnalyzer& analyzer,
                                           Gbps ingress_rate) const {
  // θ^S-minimal vNF on the SmartNIC (the poster's §3 wording): the
  // largest -θ^S.
  const SelectFn select = [](const Deployment& work, const Rejected& rejected,
                             std::vector<std::string>& /*trace*/) {
    return best_nf(work, rejected, on_smartnic, [](const DeployedChain& d, std::size_t i) {
      return -d.chain.node(i).spec.capacity.smartnic.value();
    });
  };
  return run_moves(name(), one_chain(chain, ingress_rate), analyzer,
                   naive_rule(limit_, select));
}

MigrationPlan NoMigrationPolicy::plan(const ServiceChain& chain,
                                      const ChainAnalyzer& analyzer,
                                      Gbps ingress_rate) const {
  MigrationPlan out;
  out.policy_name = name();
  out.trace.push_back("original placement kept: " +
                      analyzer.utilization(chain, ingress_rate).describe());
  return out;
}

}  // namespace pam
