#include "core/pam_policy.hpp"

#include "chain/border.hpp"
#include "common/strings.hpp"

namespace pam {

std::optional<NfRef> select_pam_border(const Deployment& work, const Rejected& rejected,
                                       std::vector<std::string>& trace) {
  // Step 1: (re-)identify borders on the working placement.  After a move
  // the border expands inward: the moved NF's SmartNIC neighbour is found.
  std::string line = "borders:";
  for (std::size_t c = 0; c < work.size(); ++c) {
    const ServiceChain& chain = work.at(c).chain;
    line += c ? "; " : " ";
    if (work.size() > 1) {
      line += chain.name() + " ";
    }
    line += find_borders(chain).describe(chain);
  }
  trace.push_back(std::move(line));

  // Step 2: b0 = argmin_{b in BL ∪ BR} θ^S_b among non-rejected.
  const std::optional<NfRef> b0 =
      best_nf(work, rejected, is_border, [](const DeployedChain& d, std::size_t i) {
        return -d.chain.node(i).spec.capacity.smartnic.value();
      });
  if (b0) {
    const NfSpec& spec = work.at(b0->chain).chain.node(b0->node).spec;
    trace.push_back(format("step 2: b0=%s (theta_S=%s, min among borders)",
                           nf_label(work, *b0).c_str(),
                           spec.capacity.smartnic.to_string().c_str()));
  }
  return b0;
}

MigrationPlan PamPolicy::plan(const ServiceChain& chain,
                              const ChainAnalyzer& analyzer,
                              Gbps ingress_rate) const {
  MoveRule rule;
  rule.limit = options_.utilization_limit;
  rule.max_moves = options_.max_migrations;
  rule.exhausted =
      "no border vNF can move without overloading the CPU — "
      "both devices hot; scale out another instance";
  rule.exceeded = format("exceeded max_migrations=%zu without alleviating the hot spot",
                         options_.max_migrations);
  rule.select = select_pam_border;
  return run_moves(name(), one_chain(chain, ingress_rate), analyzer, rule);
}

}  // namespace pam
