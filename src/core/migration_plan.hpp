// Migration plans — the output of a scaling policy.
//
// A plan is an ordered list of single-NF moves between devices, together
// with the policy's full decision trace (which candidates were considered,
// which constraint rejected them).  Plans are pure data: applying one to a
// chain yields a new placement; physically executing one is the migration
// engine's job (src/migration).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/deployment.hpp"
#include "chain/service_chain.hpp"

namespace pam {

struct MigrationStep {
  std::size_t chain = 0;  ///< index of the chain in the planned Deployment
  std::size_t node_index = 0;
  std::string nf_name;
  Location from = Location::kSmartNic;
  Location to = Location::kCpu;
  int crossing_delta = 0;  ///< change in chain PCIe crossings caused by this move
};

struct MigrationPlan {
  std::string policy_name;
  std::vector<MigrationStep> steps;

  /// False when the policy could not alleviate the overload under its
  /// constraints (both devices hot) — the operator must scale out instead
  /// (OpenNF fallback, src/control).
  bool feasible = true;
  std::string infeasibility_reason;

  /// Human-readable decision log, one line per algorithm step.
  std::vector<std::string> trace;

  [[nodiscard]] bool empty() const noexcept { return steps.empty(); }

  /// Returns a copy of `chain` with every step applied.  Throws
  /// std::invalid_argument if a step references a node whose current
  /// location does not match `from` (stale plan).
  [[nodiscard]] ServiceChain apply_to(const ServiceChain& chain) const;

  /// The same for a multi-chain plan: each step moves a node of the
  /// deployment's chain `step.chain`.
  [[nodiscard]] Deployment apply_to(const Deployment& deployment) const;

  /// Net change in PCIe crossings across all steps.
  [[nodiscard]] int total_crossing_delta() const noexcept;

  [[nodiscard]] std::string describe() const;
};

}  // namespace pam
