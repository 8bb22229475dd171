#include "core/scale_in_policy.hpp"

#include "core/migration_loop.hpp"

namespace pam {
namespace {

/// Steps 1-2: the CPU-resident NF with a SmartNIC-side neighbour (its
/// return cannot add crossings) and the largest CPU share.
std::optional<NfRef> select_reverse_border(const Deployment& work,
                                           const Rejected& rejected,
                                           std::vector<std::string>& /*trace*/) {
  const auto reverse_border = [](const ServiceChain& chain, std::size_t i) {
    return chain.location_of(i) == Location::kCpu &&
           (chain.upstream_side(i) == Location::kSmartNic ||
            chain.downstream_side(i) == Location::kSmartNic);
  };
  return best_nf(work, rejected, reverse_border, [](const DeployedChain& d, std::size_t i) {
    return d.chain.node(i).spec.utilization_at(Location::kCpu,
                                               d.chain.offered_at(i, d.offered));
  });
}

}  // namespace

MigrationPlan ScaleInPolicy::plan(const ServiceChain& chain,
                                  const ChainAnalyzer& analyzer,
                                  Gbps ingress_rate) const {
  MoveRule rule;
  rule.to = Location::kSmartNic;
  rule.limit = options_.smartnic_ceiling;
  rule.max_moves = options_.max_migrations;
  rule.select = select_reverse_border;
  return run_moves(name(), one_chain(chain, ingress_rate), analyzer, rule);
}

}  // namespace pam
