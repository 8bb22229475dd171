// Baseline migration policies the paper compares against.
//
// The poster describes the "naive solution" in two slightly different ways
// (DESIGN.md §3.3), so both are implemented:
//
//  - NaiveBottleneckPolicy (UNO [4], and the poster's Figure 1(b)):
//    migrate the *bottleneck* vNF — the SmartNIC resident consuming the
//    largest resource share — regardless of its position in the chain.
//    Moving a mid-segment NF adds two PCIe crossings; that is precisely the
//    latency penalty PAM avoids.
//
//  - NaiveMinCapacityPolicy (the poster's §3 wording): migrate the
//    SmartNIC-resident vNF with minimum capacity θ^S.
//
//  - NoMigrationPolicy ("Original"): never migrates; the overloaded
//    configuration the other policies start from.
//
// Both naive variants run PAM's own loop (core/migration_loop.hpp: the
// Eq. 2 CPU-safety check, then the Eq. 3 stop) with a different `select`,
// so the comparison against PAM isolates *candidate selection*, not loop
// mechanics.

#pragma once

#include "core/policy.hpp"

namespace pam {

class NaiveBottleneckPolicy final : public MigrationPolicy {
 public:
  explicit NaiveBottleneckPolicy(double utilization_limit = 1.0)
      : limit_(utilization_limit) {}

  [[nodiscard]] std::string name() const override { return "NaiveBottleneck"; }

  [[nodiscard]] MigrationPlan plan(const ServiceChain& chain,
                                   const ChainAnalyzer& analyzer,
                                   Gbps ingress_rate) const override;

 private:
  double limit_;
};

class NaiveMinCapacityPolicy final : public MigrationPolicy {
 public:
  explicit NaiveMinCapacityPolicy(double utilization_limit = 1.0)
      : limit_(utilization_limit) {}

  [[nodiscard]] std::string name() const override { return "NaiveMinCapacity"; }

  [[nodiscard]] MigrationPlan plan(const ServiceChain& chain,
                                   const ChainAnalyzer& analyzer,
                                   Gbps ingress_rate) const override;

 private:
  double limit_;
};

class NoMigrationPolicy final : public MigrationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Original"; }

  [[nodiscard]] MigrationPlan plan(const ServiceChain& chain,
                                   const ChainAnalyzer& analyzer,
                                   Gbps ingress_rate) const override;
};

}  // namespace pam
