// PAM algorithm tests: the paper's Steps 1-3 on the Figure-1 scenario, every
// branch of the loop, and the DESIGN.md §7 invariants over randomised
// chains (the property suite at the bottom).

#include <gtest/gtest.h>

#include "chain/border.hpp"
#include "chain/chain_builder.hpp"
#include "common/rng.hpp"
#include "core/pam_policy.hpp"

namespace pam {
namespace {

using namespace pam::literals;

class PamFixture : public ::testing::Test {
 protected:
  Server server_ = Server::paper_testbed();
  ChainAnalyzer analyzer_{server_};
  PamPolicy policy_{};
};

TEST_F(PamFixture, Figure1MigratesLoggerNotMonitor) {
  const auto chain = paper_figure1_chain();
  const auto plan = policy_.plan(chain, analyzer_, paper_overload_rate());
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].nf_name, "Logger");
  EXPECT_EQ(plan.steps[0].from, Location::kSmartNic);
  EXPECT_EQ(plan.steps[0].to, Location::kCpu);
  EXPECT_EQ(plan.steps[0].crossing_delta, 0);
  EXPECT_EQ(plan.policy_name, "PAM");
}

TEST_F(PamFixture, Figure1PostConditionsHold) {
  const auto chain = paper_figure1_chain();
  const auto plan = policy_.plan(chain, analyzer_, paper_overload_rate());
  const auto after = plan.apply_to(chain);
  const auto util = analyzer_.utilization(after, paper_overload_rate());
  EXPECT_LT(util.smartnic, 1.0);  // Eq. 3
  EXPECT_LT(util.cpu, 1.0);       // Eq. 2
  EXPECT_EQ(after.pcie_crossings(), chain.pcie_crossings());
}

TEST_F(PamFixture, NoActionBelowThreshold) {
  const auto chain = paper_figure1_chain();
  const auto plan = policy_.plan(chain, analyzer_, paper_baseline_rate());
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.trace.empty());
}

TEST_F(PamFixture, TraceDocumentsEveryStep) {
  const auto chain = paper_figure1_chain();
  const auto plan = policy_.plan(chain, analyzer_, paper_overload_rate());
  ASSERT_GE(plan.trace.size(), 4u);
  EXPECT_NE(plan.trace[0].find("OVERLOADED"), std::string::npos);
  bool has_border_line = false;
  bool has_terminate_line = false;
  for (const auto& line : plan.trace) {
    has_border_line |= line.find("borders:") != std::string::npos;
    has_terminate_line |= line.find("terminate") != std::string::npos;
  }
  EXPECT_TRUE(has_border_line);
  EXPECT_TRUE(has_terminate_line);
}

TEST_F(PamFixture, Figure1TraceIsPinned) {
  // The paper's walkthrough, line by line: Step 1's border sets, Step 2's
  // pick, the move and the Eq. 3 stop.
  const std::vector<std::string> expected = {
      "initial util{S=1.458 OVERLOADED, C=0.605, PCIe=0.069, wire=0.110}, crossings=1",
      "borders: BL={} BR={Logger}",
      "step 2: b0=Logger (theta_S=2.000 Gbps, min among borders)",
      "migrate Logger -> CPU (crossings +0, now util{S=0.907, C=0.880, PCIe=0.069, "
      "wire=0.110})",
      "Eq.3 satisfied (S=0.907 < 1.00); terminate",
  };
  const auto plan = policy_.plan(paper_figure1_chain(), analyzer_, paper_overload_rate());
  EXPECT_EQ(plan.trace, expected);
}

TEST_F(PamFixture, MultiStepExpandsBorderInward) {
  // Heavy SmartNIC segment: one border migration is not enough, PAM must
  // walk the border inward.
  //   wire ->[S]fw ->[S]mon1 ->[S]mon2 ->[S]mon3 ->[C]lb -> host
  // At 1.5 Gbps: S = .15 + 3 x .46875 = 1.556.  Removing mon3 leaves
  // 1.087 (still hot); removing mon2 as well leaves .619 -> terminate.
  const auto chain = ChainBuilder{"deep"}
                         .add(NfType::kFirewall, "fw", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon1", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon2", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon3", Location::kSmartNic)
                         .add(NfType::kLoadBalancer, "lb", Location::kCpu)
                         .build();
  const auto plan = policy_.plan(chain, analyzer_, 1.5_gbps);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.steps.size(), 2u);
  // mon3 is the only initial border; migrating it exposes mon2.
  EXPECT_EQ(plan.steps[0].nf_name, "mon3");
  EXPECT_EQ(plan.steps[1].nf_name, "mon2");
  const auto after = plan.apply_to(chain);
  EXPECT_LE(after.pcie_crossings(), chain.pcie_crossings());
  EXPECT_LT(analyzer_.utilization(after, 1.5_gbps).smartnic, 1.0);
  EXPECT_LT(analyzer_.utilization(after, 1.5_gbps).cpu, 1.0);
}

TEST_F(PamFixture, Eq2RejectionSkipsCandidate) {
  // Pre-load the CPU so the min-capacity border (Logger) cannot move there;
  // PAM must reject it (Eq. 2) and take the next border instead.
  //
  //   wire ->[S]fw ->[S]log ->[C]lb ->[C]dpi ->[S]mon -> host
  //
  // At 1.3 Gbps:
  //   S = .13 (fw) + .65 (log) + .40625 (mon) = 1.186  -> overloaded.
  //   C base = .325 (lb) + .4333 (dpi) + 3 crossings x .0325 = .856.
  //   Borders: log (theta_S=2, downstream lb on CPU) and mon (theta_S=3.2,
  //   both neighbours CPU-side).
  //   +log -> .856 + .325 = 1.18 >= 1  => rejected.
  //   +mon -> <1 (mon is cheap on CPU, and its move removes 2 crossings)
  //   => accepted; S drops to .78 < 1 => terminate.
  const auto chain = ChainBuilder{"tight"}
                         .add(NfType::kFirewall, "fw", Location::kSmartNic)
                         .add(NfType::kLogger, "log", Location::kSmartNic, 1.0)
                         .add(NfType::kLoadBalancer, "lb", Location::kCpu)
                         .add(NfType::kDpi, "heavy", Location::kCpu)
                         .add(NfType::kMonitor, "mon", Location::kSmartNic)
                         .build();
  const auto plan = policy_.plan(chain, analyzer_, 1.3_gbps);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].nf_name, "mon");
  bool logger_rejected = false;
  for (const auto& line : plan.trace) {
    logger_rejected |= line.find("Eq.2 violated") != std::string::npos &&
                       line.find("log") != std::string::npos;
  }
  EXPECT_TRUE(logger_rejected);
  const auto after = plan.apply_to(chain);
  EXPECT_LT(analyzer_.utilization(after, 1.3_gbps).smartnic, 1.0);
  EXPECT_LT(after.pcie_crossings(), chain.pcie_crossings());
}

TEST_F(PamFixture, InfeasibleWhenBothDevicesHot) {
  // CPU already saturated by a resident DPI; SmartNIC overloaded; nothing
  // can move -> scale-out signal.
  const auto chain = ChainBuilder{"hot"}
                         .add(NfType::kLogger, "log", Location::kSmartNic, 1.0)
                         .add(NfType::kDpi, "heavy", Location::kCpu)
                         .build();
  // At 2.9 Gbps: S = 2.9/2 = 1.45; CPU: dpi 2.9/3 = .967 + crossings.
  const auto plan = policy_.plan(chain, analyzer_, 2.9_gbps);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_NE(plan.infeasibility_reason.find("scale out"), std::string::npos);
}

TEST_F(PamFixture, UtilizationLimitOptionTightensTrigger) {
  PamOptions opts;
  opts.utilization_limit = 0.6;
  const PamPolicy strict{opts};
  const auto chain = paper_figure1_chain();
  // At 1.2 Gbps the SmartNIC sits at 0.795 — below 1.0 but above 0.6, so
  // the strict policy migrates where the default would not.
  const auto default_plan = policy_.plan(chain, analyzer_, 1.2_gbps);
  EXPECT_TRUE(default_plan.empty());
  const auto strict_plan = strict.plan(chain, analyzer_, 1.2_gbps);
  EXPECT_FALSE(strict_plan.empty());
}

TEST_F(PamFixture, MaxMigrationsBoundsTheLoop) {
  PamOptions opts;
  opts.max_migrations = 1;
  const PamPolicy bounded{opts};
  // Needs two migrations (see MultiStepExpandsBorderInward) but only one is
  // allowed -> the policy reports failure instead of looping further.
  const auto chain = ChainBuilder{"deep"}
                         .add(NfType::kFirewall, "fw", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon1", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon2", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon3", Location::kSmartNic)
                         .add(NfType::kLoadBalancer, "lb", Location::kCpu)
                         .build();
  const auto plan = bounded.plan(chain, analyzer_, 1.5_gbps);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.steps.size(), 1u);
}

TEST_F(PamFixture, PolicyIsPure) {
  const auto chain = paper_figure1_chain();
  const auto a = policy_.plan(chain, analyzer_, paper_overload_rate());
  const auto b = policy_.plan(chain, analyzer_, paper_overload_rate());
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].nf_name, b.steps[i].nf_name);
  }
  EXPECT_EQ(chain.location_of(2), Location::kSmartNic);  // input untouched
}

// ---------------------------------------------------------------------------
// Property suite: DESIGN.md §7 invariants over randomised chains/loads.
// ---------------------------------------------------------------------------

struct RandomScenario {
  ServiceChain chain{"rand"};
  Gbps rate{0.0};
};

RandomScenario make_scenario(std::uint64_t seed) {
  Rng rng{seed};
  const NfType types[] = {NfType::kFirewall, NfType::kLogger, NfType::kMonitor,
                          NfType::kLoadBalancer, NfType::kNat, NfType::kDpi,
                          NfType::kRateLimiter, NfType::kEncryptor};
  ChainBuilder builder{"rand"};
  builder.ingress(rng.chance(0.8) ? Attachment::kWire : Attachment::kHost);
  builder.egress(rng.chance(0.5) ? Attachment::kWire : Attachment::kHost);
  const std::size_t n = 2 + rng.bounded(6);
  for (std::size_t i = 0; i < n; ++i) {
    const NfType type = types[rng.bounded(8)];
    const double load_factor = rng.chance(0.3) ? rng.uniform(0.25, 1.0) : 1.0;
    builder.add(type, "nf" + std::to_string(i),
                rng.chance(0.65) ? Location::kSmartNic : Location::kCpu,
                load_factor);
  }
  RandomScenario s;
  s.chain = builder.build();
  s.rate = Gbps{rng.uniform(0.3, 3.5)};
  return s;
}

class PamInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PamInvariants, HoldOnRandomScenarios) {
  const RandomScenario scenario = make_scenario(GetParam() * 2654435761ull);
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const PamPolicy policy;
  const auto plan = policy.plan(scenario.chain, analyzer, scenario.rate);

  // Invariant 4: every migrated NF was a border at selection time — verified
  // by replaying the steps and re-deriving borders.
  ServiceChain replay = scenario.chain;
  for (const auto& step : plan.steps) {
    EXPECT_TRUE(find_borders(replay).contains(step.node_index))
        << replay.describe() << " step " << step.nf_name;
    EXPECT_EQ(replay.location_of(step.node_index), Location::kSmartNic);
    replay.set_location(step.node_index, Location::kCpu);
  }

  // Invariant 1: PAM never increases crossings.
  const auto after = plan.apply_to(scenario.chain);
  EXPECT_LE(after.pcie_crossings(), scenario.chain.pcie_crossings())
      << scenario.chain.describe();

  if (plan.feasible && !plan.empty()) {
    const auto util = analyzer.utilization(after, scenario.rate);
    // Invariant 3 (Eq. 3): the hot spot is gone.
    EXPECT_LT(util.smartnic, 1.0) << after.describe();
    // Invariant 2 (Eq. 2): the CPU did not become the new hot spot.
    EXPECT_LT(util.cpu, 1.0) << after.describe();
  }
  if (plan.feasible && plan.empty()) {
    // Only legal when the SmartNIC was never overloaded.
    EXPECT_LT(analyzer.utilization(scenario.chain, scenario.rate).smartnic, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PamInvariants,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace pam
