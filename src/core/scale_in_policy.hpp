// Scale-in: PAM run in reverse.
//
// After a traffic spike subsides, vNFs pushed to the CPU should return to
// the SmartNIC — that is where they are cheapest in latency (no per-hop
// virtualisation tax) and it frees the CPU for applications.  The selection
// mirrors PAM's logic with the roles swapped:
//
//   Step 1  Candidates are CPU-resident NFs whose migration back to the
//           SmartNIC does not increase PCIe crossings (the "reverse
//           borders": CPU NFs with at least one SmartNIC-side neighbour).
//   Step 2  Among them pick the NF with *maximum* CPU resource share —
//           returning it frees the most CPU.
//   Step 3  Check the SmartNIC stays below the limit with the NF back
//           (Eq. 3 mirrored); loop while any candidate fits.
//
// Step 3 is PAM's own loop (core/migration_loop.hpp) run in the other
// direction: the landing device is the SmartNIC, nothing is relieved, so
// the loop ends when no candidate fits and the plan is always feasible.
//
// Together with PamPolicy this gives the controller a bidirectional
// placement loop: push aside on overload, pull back on calm.

#pragma once

#include "core/policy.hpp"

namespace pam {

struct ScaleInOptions {
  /// Target ceiling for the SmartNIC after pulling an NF back.  Lower than
  /// 1.0 so a small fluctuation does not immediately re-trigger PAM
  /// (hysteresis against migration ping-pong).
  double smartnic_ceiling = 0.8;

  std::size_t max_migrations = 64;
};

class ScaleInPolicy final : public MigrationPolicy {
 public:
  explicit ScaleInPolicy(ScaleInOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "PAM-ScaleIn"; }

  [[nodiscard]] MigrationPlan plan(const ServiceChain& chain,
                                   const ChainAnalyzer& analyzer,
                                   Gbps ingress_rate) const override;

 private:
  ScaleInOptions options_;
};

}  // namespace pam
