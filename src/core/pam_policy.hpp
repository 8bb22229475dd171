// PAM — Push Aside Migration (the paper's contribution, §2).
//
// When the SmartNIC is overloaded, PAM does NOT migrate the overloaded vNF.
// Instead it migrates *border* vNFs — SmartNIC NFs adjacent to a CPU-side
// hop — because moving those never adds PCIe crossings:
//
//   Step 1  Identify border vNFs (BL: upstream on CPU, BR: downstream on
//           CPU; virtual ingress/egress endpoints count — see border.hpp).
//   Step 2  Among the remaining border candidates, select b0 with minimum
//           SmartNIC capacity θ^S (frees the most fractional SmartNIC
//           resource per migrated NF).
//   Step 3  Check constraint (1) — Eq. 2: the CPU, with b0 added, stays
//           below 1.0 utilisation.  If violated, discard b0 as a candidate
//           and return to Step 2.  Check constraint (2) — Eq. 3: the
//           SmartNIC without b0 drops below 1.0.  Migrate b0; if Eq. 3
//           held, terminate, otherwise expand the border inward (the
//           migrated NF's SmartNIC-side neighbour becomes a border) and
//           return to Step 2.
//
// If candidates run out while the SmartNIC is still hot, both devices are
// effectively overloaded and the plan is reported infeasible — the operator
// must start another instance (OpenNF-style scale-out, src/control).
//
// Step 3 is the loop every policy shares (core/migration_loop.hpp); what is
// PAM's own is Steps 1-2, `select_pam_border`, which MultiChainPam runs
// over the union of every chain's border sets.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/migration_loop.hpp"
#include "core/policy.hpp"

namespace pam {

/// Steps 1-2 over every chain of `work`: the border vNF with minimum θ^S
/// that is not in `rejected`.  Traces the border sets and the pick.
[[nodiscard]] std::optional<NfRef> select_pam_border(const Deployment& work,
                                                     const Rejected& rejected,
                                                     std::vector<std::string>& trace);

/// Tunables of the PAM selection loop.  The defaults reproduce the paper.
struct PamOptions {
  /// Target utilisation treated as "full" in Eq. 2/3.  1.0 matches the
  /// paper; operators may leave headroom (e.g. 0.9).
  double utilization_limit = 1.0;

  /// Safety bound on migrations per invocation (the loop is provably finite
  /// anyway; this catches misconfigured chains in release builds).
  std::size_t max_migrations = 64;
};

/// The paper's Push Aside Migration policy: relieve an overloaded SmartNIC
/// by migrating *border* vNFs (never the bottleneck itself), so that no
/// migration ever adds a PCIe crossing.  See the file comment for the
/// three-step algorithm this implements.
class PamPolicy final : public MigrationPolicy {
 public:
  /// Constructs the policy; `options` defaults reproduce the paper.
  explicit PamPolicy(PamOptions options = {}) : options_(options) {}

  /// Returns "PAM".
  [[nodiscard]] std::string name() const override { return "PAM"; }

  /// Runs Steps 1-3 against `chain` at `ingress_rate`.  The returned plan
  /// carries a full decision trace (borders considered, constraints that
  /// rejected candidates); it is empty when the SmartNIC is not overloaded
  /// and infeasible when candidates run out while both devices stay hot.
  [[nodiscard]] MigrationPlan plan(const ServiceChain& chain,
                                   const ChainAnalyzer& analyzer,
                                   Gbps ingress_rate) const override;

  /// The options this policy was constructed with.
  [[nodiscard]] const PamOptions& options() const noexcept { return options_; }

 private:
  PamOptions options_;
};

}  // namespace pam
