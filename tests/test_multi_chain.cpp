// Multi-chain deployment + MultiChainPam tests (the "extend PAM" future
// work): aggregate utilisation, cross-chain border selection, invariants.

#include <gtest/gtest.h>

#include "chain/chain_builder.hpp"
#include "chain/deployment.hpp"
#include "common/rng.hpp"
#include "core/multi_chain_pam.hpp"
#include "core/pam_policy.hpp"

namespace pam {
namespace {

using namespace pam::literals;

ServiceChain small_chain(const std::string& name, NfType a, NfType b,
                         Location loc_a = Location::kSmartNic,
                         Location loc_b = Location::kCpu) {
  return ChainBuilder{name}
      .egress(Attachment::kHost)
      .add(a, name + "-a", loc_a)
      .add(b, name + "-b", loc_b)
      .build();
}

class MultiChainFixture : public ::testing::Test {
 protected:
  Server server_ = Server::paper_testbed();
  ChainAnalyzer analyzer_{server_};
};

TEST_F(MultiChainFixture, AggregateUtilizationSumsChains) {
  Deployment dep;
  dep.add(paper_figure1_chain(), 1.0_gbps);
  dep.add(small_chain("t2", NfType::kMonitor, NfType::kLoadBalancer), 1.0_gbps);
  const auto total = dep.utilization(analyzer_);
  const auto a = analyzer_.utilization(paper_figure1_chain(), 1.0_gbps);
  const auto b = analyzer_.utilization(
      small_chain("t2", NfType::kMonitor, NfType::kLoadBalancer), 1.0_gbps);
  EXPECT_NEAR(total.smartnic, a.smartnic + b.smartnic, 1e-12);
  EXPECT_NEAR(total.cpu, a.cpu + b.cpu, 1e-12);
  EXPECT_NEAR(total.pcie, a.pcie + b.pcie, 1e-12);
}

TEST_F(MultiChainFixture, WeightedCrossings) {
  Deployment dep;
  dep.add(paper_figure1_chain(), 2.0_gbps);  // 1 crossing x 2 Gbps
  auto naive = paper_figure1_chain();
  naive.set_location(1, Location::kCpu);     // 3 crossings x 1 Gbps
  dep.add(naive, 1.0_gbps);
  EXPECT_DOUBLE_EQ(dep.weighted_crossings(), 2.0 + 3.0);
}

TEST_F(MultiChainFixture, NoActionWhenAggregateBelowLimit) {
  Deployment dep;
  dep.add(paper_figure1_chain(), 0.5_gbps);
  dep.add(paper_figure1_chain(), 0.5_gbps);
  // Same chain object twice is fine: plans are per-deployment-slot.
  const MultiChainPam pam;
  const auto plan = pam.plan(dep, analyzer_);
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.empty());
}

TEST_F(MultiChainFixture, SharedOverloadCrossChainEq2Rejection) {
  // Neither chain alone overloads the SmartNIC; together they do.  The
  // global min-capacity border is tenant-b's Logger (theta_S = 2), but the
  // two LoadBalancers already hold the CPU at 0.825 aggregate — adding the
  // Logger (0.35) violates Eq. 2, so PAM rejects it and migrates tenant-a's
  // Monitor instead (cheap on the CPU: theta_C = 10).
  Deployment dep;
  dep.add(ChainBuilder{"tenant-a"}
              .egress(Attachment::kHost)
              .add(NfType::kMonitor, "a-mon", Location::kSmartNic)
              .add(NfType::kLoadBalancer, "a-lb", Location::kCpu)
              .build(),
          1.6_gbps);  // S util 0.5
  dep.add(ChainBuilder{"tenant-b"}
              .egress(Attachment::kHost)
              .add(NfType::kLogger, "b-log", Location::kSmartNic)
              .add(NfType::kLoadBalancer, "b-lb", Location::kCpu)
              .build(),
          1.4_gbps);  // S util 0.7 -> aggregate 1.2
  ASSERT_GE(dep.utilization(analyzer_).smartnic, 1.0);

  const MultiChainPam pam;
  const auto plan = pam.plan(dep, analyzer_);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].chain, 0u);
  EXPECT_EQ(plan.steps[0].nf_name, "a-mon");
  bool logger_rejected = false;
  for (const auto& line : plan.trace) {
    logger_rejected |= line.find("Eq.2 violated") != std::string::npos &&
                       line.find("b-log") != std::string::npos;
  }
  EXPECT_TRUE(logger_rejected);

  const auto after = plan.apply_to(dep);
  EXPECT_LT(after.utilization(analyzer_).smartnic, 1.0);
  EXPECT_LT(after.utilization(analyzer_).cpu, 1.0);
}

TEST_F(MultiChainFixture, SpansMultipleChainsWhenNeeded) {
  // Three Monitor-only tenants at 1.6 Gbps each: aggregate S = 1.5, and
  // resolving it takes migrations in two *different* chains.
  Deployment dep;
  for (int c = 1; c <= 3; ++c) {
    dep.add(ChainBuilder{"c" + std::to_string(c)}
                .egress(Attachment::kHost)
                .add(NfType::kMonitor, "c" + std::to_string(c) + "-mon",
                     Location::kSmartNic)
                .build(),
            1.6_gbps);  // S 0.5 each
  }
  const MultiChainPam pam;
  const auto plan = pam.plan(dep, analyzer_);
  ASSERT_TRUE(plan.feasible) << plan.infeasibility_reason;
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_NE(plan.steps[0].chain, plan.steps[1].chain);
  const auto after = plan.apply_to(dep);
  EXPECT_LT(after.utilization(analyzer_).smartnic, 1.0);
  EXPECT_LT(after.utilization(analyzer_).cpu, 1.0);
}

TEST_F(MultiChainFixture, InfeasibleWhenCpuCannotAbsorb) {
  Deployment dep;
  dep.add(ChainBuilder{"c1"}
              .egress(Attachment::kHost)
              .add(NfType::kLogger, "c1-log", Location::kSmartNic, 1.0)
              .add(NfType::kDpi, "c1-dpi", Location::kCpu)
              .build(),
          2.8_gbps);  // S 1.4, CPU dpi ~0.93
  const MultiChainPam pam;
  const auto plan = pam.plan(dep, analyzer_);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.steps.empty());
}

TEST_F(MultiChainFixture, DescribeListsChains) {
  Deployment dep;
  dep.add(paper_figure1_chain(), 1.0_gbps);
  const std::string text = dep.describe();
  EXPECT_NE(text.find("figure1"), std::string::npos);
  EXPECT_NE(text.find("1 chains"), std::string::npos);
}

/// A random deployment of 1..max_chains chains of 1-4 NFs, each chain at
/// a rate drawn from [0.2, max_gbps).
Deployment random_deployment(std::uint64_t seed, std::size_t max_chains,
                             double max_gbps = 1.5) {
  Rng rng{seed * 6364136223846793005ull};
  const NfType types[] = {NfType::kFirewall, NfType::kLogger, NfType::kMonitor,
                          NfType::kLoadBalancer, NfType::kNat, NfType::kDpi,
                          NfType::kRateLimiter, NfType::kEncryptor};
  Deployment dep;
  const std::size_t n_chains = 1 + rng.bounded(max_chains);
  for (std::size_t c = 0; c < n_chains; ++c) {
    ChainBuilder builder{"chain" + std::to_string(c)};
    builder.egress(rng.chance(0.5) ? Attachment::kWire : Attachment::kHost);
    const std::size_t n = 1 + rng.bounded(4);
    for (std::size_t i = 0; i < n; ++i) {
      builder.add(types[rng.bounded(8)],
                  "c" + std::to_string(c) + "n" + std::to_string(i),
                  rng.chance(0.7) ? Location::kSmartNic : Location::kCpu);
    }
    dep.add(builder.build(), Gbps{rng.uniform(0.2, max_gbps)});
  }
  return dep;
}

// Property: the multi-chain plan never increases any chain's crossings and,
// when feasible and non-empty, resolves the aggregate overload.
class MultiChainInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiChainInvariants, HoldOnRandomDeployments) {
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const Deployment dep = random_deployment(GetParam(), 4);

  const MultiChainPam pam;
  const auto plan = pam.plan(dep, analyzer);
  const auto after = plan.apply_to(dep);
  for (std::size_t c = 0; c < dep.size(); ++c) {
    EXPECT_LE(after.at(c).chain.pcie_crossings(),
              dep.at(c).chain.pcie_crossings())
        << dep.at(c).chain.describe();
  }
  if (plan.feasible && !plan.empty()) {
    EXPECT_LT(after.utilization(analyzer).smartnic, 1.0);
    EXPECT_LT(after.utilization(analyzer).cpu, 1.0);
  }
}

// Property: on a one-chain deployment, multi-chain PAM is PamPolicy — the
// same steps, the same feasibility and the same trace.
TEST(MultiChainPamOneChain, MatchesPamPolicy) {
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const MultiChainPam multi;
  const PamPolicy single;
  std::size_t moved = 0;
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Deployment dep = random_deployment(seed, 1, 3.5);
    const DeployedChain& only = dep.at(0);
    const MigrationPlan a = multi.plan(dep, analyzer);
    const MigrationPlan b = single.plan(only.chain, analyzer, only.offered);
    SCOPED_TRACE(only.chain.describe() + " @ " + only.offered.to_string());
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.trace, b.trace);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t k = 0; k < a.steps.size(); ++k) {
      EXPECT_EQ(a.steps[k].chain, 0u);
      EXPECT_EQ(a.steps[k].node_index, b.steps[k].node_index);
      EXPECT_EQ(a.steps[k].nf_name, b.steps[k].nf_name);
      EXPECT_EQ(a.steps[k].from, b.steps[k].from);
      EXPECT_EQ(a.steps[k].to, b.steps[k].to);
      EXPECT_EQ(a.steps[k].crossing_delta, b.steps[k].crossing_delta);
    }
    moved += b.steps.empty() ? 0 : 1;
    infeasible += b.feasible ? 0 : 1;
  }
  // The rates reach 3.5 Gbps, so the sample exercises both outcomes.
  EXPECT_GT(moved, 20u);
  EXPECT_GT(infeasible, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiChainInvariants,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace pam
