#include "core/multi_chain_pam.hpp"

#include "core/pam_policy.hpp"

namespace pam {

MigrationPlan MultiChainPam::plan(const Deployment& deployment,
                                  const ChainAnalyzer& analyzer) const {
  MoveRule rule;
  rule.max_moves = 128;
  rule.exhausted = "no border vNF in any chain can move without overloading the CPU";
  rule.exceeded = "exceeded max_migrations=128";
  rule.select = select_pam_border;
  return run_moves("PAM", deployment, analyzer, rule);
}

}  // namespace pam
