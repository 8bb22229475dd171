// PAM generalised to multi-chain deployments (the poster's "extend PAM"
// future work).
//
// With several chains sharing one SmartNIC, the overload is a property of
// the aggregate, but the crossing-safety argument is per-chain: a border
// vNF of *any* chain can migrate without adding crossings to *its* chain
// (and other chains are untouched).  The algorithm is therefore PAM's own
// loop and `select_pam_border` (core/pam_policy.hpp) run over the whole
// Deployment: the candidates are the union of all chains' border sets, and
// Eq. 2/3 are evaluated on aggregate utilisation.  Each step names its
// chain (`MigrationStep::chain`).

#pragma once

#include "chain/deployment.hpp"
#include "core/migration_plan.hpp"

namespace pam {

class MultiChainPam {
 public:
  /// Plans moves that bring the aggregate SmartNIC below 1.0; infeasible
  /// when no border vNF of any chain fits on the CPU.
  [[nodiscard]] MigrationPlan plan(const Deployment& deployment,
                                   const ChainAnalyzer& analyzer) const;
};

}  // namespace pam
