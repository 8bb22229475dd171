// The greedy migration loop every policy runs.
//
// PAM, both naive baselines, scale-in and multi-chain PAM differ only in
// which NF they move next; the loop around that choice is the paper's
// Step 3 for all of them:
//
//   - pick a candidate (the policy's `select`, Steps 1-2);
//   - move it on trial and check the landing device stays below the limit
//     (Eq. 2 for a push to the CPU); if not, reject that candidate for the
//     rest of the plan and pick again;
//   - keep the move, and stop once the SmartNIC is relieved (Eq. 3).  A
//     pull back to the SmartNIC (scale-in) has nothing to relieve, so it
//     runs until no candidate fits.
//
// A single chain is planned as a one-chain Deployment.  As in the paper, a
// rejected candidate is dropped for the rest of the plan.

#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chain/deployment.hpp"
#include "core/migration_plan.hpp"

namespace pam {

/// One NF of a deployment: its chain index and its node index there.
struct NfRef {
  std::size_t chain = 0;
  std::size_t node = 0;
};

/// Candidates rejected so far, as (chain, node) pairs.
using Rejected = std::set<std::pair<std::size_t, std::size_t>>;

/// Picks the next NF to move from the working deployment, skipping
/// `rejected`; nullopt when no candidate is left.  May append the lines
/// that explain its choice to `trace`.
using SelectFn = std::optional<NfRef> (*)(const Deployment& work,
                                          const Rejected& rejected,
                                          std::vector<std::string>& trace);

/// What one policy's loop varies: everything else is shared.
struct MoveRule {
  Location to = Location::kCpu;  ///< direction of every move
  double limit = 1.0;            ///< ceiling on the landing device (and Eq. 3)
  std::size_t max_moves = std::numeric_limits<std::size_t>::max();
  /// Infeasibility reasons when candidates run out / `max_moves` is hit.
  /// Empty: the plan just ends there, feasible.
  std::string exhausted;
  std::string exceeded;
  SelectFn select = nullptr;
};

/// Runs the loop on `deployment` and returns the plan, with its trace.
[[nodiscard]] MigrationPlan run_moves(std::string policy_name, Deployment deployment,
                                      const ChainAnalyzer& analyzer,
                                      const MoveRule& rule);

/// The non-rejected NF of `work` that passes `candidate(chain, node)` with
/// the largest `score(deployed_chain, node)`; ties go to the first in
/// chain order.  Every policy's `select` picks with this.
template <typename Candidate, typename Score>
[[nodiscard]] std::optional<NfRef> best_nf(const Deployment& work, const Rejected& rejected,
                                           Candidate&& candidate, Score&& score) {
  std::optional<NfRef> best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < work.size(); ++c) {
    const DeployedChain& deployed = work.at(c);
    for (std::size_t i = 0; i < deployed.chain.size(); ++i) {
      if (!candidate(deployed.chain, i) || rejected.contains({c, i})) {
        continue;
      }
      const double s = score(deployed, i);
      if (s > best_score) {
        best_score = s;
        best = NfRef{c, i};
      }
    }
  }
  return best;
}

/// `chain` at `offered` as a one-chain deployment.
[[nodiscard]] Deployment one_chain(const ServiceChain& chain, Gbps offered);

/// "name", or "chain/name" when the deployment has several chains.
[[nodiscard]] std::string nf_label(const Deployment& deployment, NfRef nf);

}  // namespace pam
