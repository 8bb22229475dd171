// End-to-end reproduction assertions for the paper's evaluation (§3):
// these tests pin the *shape* of Table 1, Figure 1 and Figure 2 so a
// regression in any layer (device model, analyzer, policies, simulator)
// breaks the reproduction visibly.

#include <gtest/gtest.h>

#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "core/naive_policy.hpp"
#include "core/pam_policy.hpp"
#include "one_chain.hpp"

namespace pam {
namespace {

using namespace pam::literals;

struct Scenario {
  Server server = Server::paper_testbed();
  ChainAnalyzer analyzer{server};
  ServiceChain original = paper_figure1_chain();
  ServiceChain after_pam{"x"};
  ServiceChain after_naive{"x"};

  Scenario() {
    const PamPolicy pam_policy;
    const NaiveBottleneckPolicy naive_policy;
    after_pam =
        pam_policy.plan(original, analyzer, paper_overload_rate()).apply_to(original);
    after_naive = naive_policy.plan(original, analyzer, paper_overload_rate())
                      .apply_to(original);
  }
};

SimReport measure(const ServiceChain& chain, Gbps rate, std::size_t size) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(rate);
  cfg.sizes = PacketSizeDistribution::fixed(size);
  cfg.seed = 1234;
  OneChain one{chain, cfg};
  return one.run(SimTime::milliseconds(80), SimTime::milliseconds(15));
}

/// Mean latency across the paper's 64B..1500B sweep.
double sweep_mean_latency_us(const ServiceChain& chain, Gbps rate) {
  double total = 0.0;
  for (const std::size_t size : paper_size_sweep()) {
    total += measure(chain, rate, size).latency.mean().us();
  }
  return total / static_cast<double>(paper_size_sweep().size());
}

TEST(PaperFigure1, PamAndNaiveChooseDifferently) {
  const Scenario s;
  EXPECT_EQ(s.after_pam.location_of(*s.after_pam.index_of("Logger")),
            Location::kCpu);
  EXPECT_EQ(s.after_pam.location_of(*s.after_pam.index_of("Monitor")),
            Location::kSmartNic);
  EXPECT_EQ(s.after_naive.location_of(*s.after_naive.index_of("Monitor")),
            Location::kCpu);
  EXPECT_EQ(s.after_naive.location_of(*s.after_naive.index_of("Logger")),
            Location::kSmartNic);
}

TEST(PaperFigure1, CrossingArithmetic) {
  const Scenario s;
  EXPECT_EQ(s.original.pcie_crossings(), 1u);
  EXPECT_EQ(s.after_pam.pcie_crossings(), 1u);     // Figure 1(c): unchanged
  EXPECT_EQ(s.after_naive.pcie_crossings(), 3u);   // Figure 1(b): two more
}

TEST(PaperFigure1, BothPoliciesAlleviateTheHotSpot) {
  const Scenario s;
  const Gbps rate = paper_overload_rate();
  EXPECT_GE(s.analyzer.utilization(s.original, rate).smartnic, 1.0);
  EXPECT_LT(s.analyzer.utilization(s.after_pam, rate).smartnic, 1.0);
  EXPECT_LT(s.analyzer.utilization(s.after_naive, rate).smartnic, 1.0);
  EXPECT_LT(s.analyzer.utilization(s.after_pam, rate).cpu, 1.0);
  EXPECT_LT(s.analyzer.utilization(s.after_naive, rate).cpu, 1.0);
}

TEST(PaperFigure2a, PamBeatsNaiveByRoughly18Percent) {
  const Scenario s;
  const Gbps rate = paper_overload_rate();
  const double pam_us = sweep_mean_latency_us(s.after_pam, rate);
  const double naive_us = sweep_mean_latency_us(s.after_naive, rate);
  const double reduction = (naive_us - pam_us) / naive_us;
  // Paper: 18% lower on average.  Accept 10%-30% as "same shape".
  EXPECT_GT(reduction, 0.10) << "pam " << pam_us << " naive " << naive_us;
  EXPECT_LT(reduction, 0.30) << "pam " << pam_us << " naive " << naive_us;
}

TEST(PaperFigure2a, PamCloseToOriginalLatency) {
  // "The service chain latency with PAM is almost unchanged compared to the
  // latency before migration" — measured at the pre-spike load where the
  // original placement is not saturated.
  const Scenario s;
  const Gbps probe = paper_baseline_rate();
  const double original_us = sweep_mean_latency_us(s.original, probe);
  const double pam_us = sweep_mean_latency_us(s.after_pam, probe);
  EXPECT_NEAR(pam_us, original_us, original_us * 0.12);
}

TEST(PaperFigure2a, NaiveClearlyWorseThanOriginal) {
  const Scenario s;
  const Gbps probe = paper_baseline_rate();
  const double original_us = sweep_mean_latency_us(s.original, probe);
  const double naive_us = sweep_mean_latency_us(s.after_naive, probe);
  EXPECT_GT(naive_us, original_us * 1.15);
}

TEST(PaperFigure2b, ThroughputOrdering) {
  // Original (overloaded) lowest; PAM at least as good as naive ("improved
  // a little since NFs may perform differently on SmartNIC and CPU").
  const Scenario s;
  const Gbps original_cap = s.analyzer.max_sustainable_rate(s.original);
  const Gbps naive_cap = s.analyzer.max_sustainable_rate(s.after_naive);
  const Gbps pam_cap = s.analyzer.max_sustainable_rate(s.after_pam);
  EXPECT_LT(original_cap.value(), naive_cap.value());
  EXPECT_LT(original_cap.value(), pam_cap.value());
  EXPECT_GE(pam_cap.value(), naive_cap.value());
  // And the paper's rough magnitudes: original ~2 Gbps region, migrated
  // configurations beyond the overload rate.
  EXPECT_GT(pam_cap.value(), paper_overload_rate().value());
}

TEST(PaperFigure2b, SimulatedGoodputMatchesAnalyticCaps) {
  // At 20% overload the measured goodput pins at each configuration's
  // analytic sustainable rate (deeper overload wastes upstream service on
  // packets drop-tailed mid-chain and lands below the fluid cap).
  const Scenario s;
  for (const ServiceChain* chain :
       {&s.original, &s.after_naive, &s.after_pam}) {
    const Gbps cap = s.analyzer.max_sustainable_rate(*chain);
    const SimReport report = measure(*chain, cap * 1.2, 512);
    EXPECT_NEAR(report.egress_goodput.value(), cap.value(), cap.value() * 0.1)
        << chain->describe();
  }
}

TEST(PaperTable1, SimulatorRealisesConfiguredCapacities) {
  // Drive each paper vNF in isolation on each device around its *realised*
  // capacity (analyzer's sustainable rate: the Table-1 θ for the NF itself,
  // minus the per-crossing driver cost when traffic must reach the CPU over
  // PCIe — exactly the conditions under which the paper measured Table 1)
  // and check the saturation boundary: no queue drops just below, drops and
  // pinned goodput just above.
  const struct {
    NfType type;
    Location loc;
  } cells[] = {
      {NfType::kFirewall, Location::kSmartNic},
      {NfType::kFirewall, Location::kCpu},
      {NfType::kLogger, Location::kSmartNic},
      {NfType::kLogger, Location::kCpu},
      {NfType::kMonitor, Location::kSmartNic},
      {NfType::kMonitor, Location::kCpu},
      {NfType::kLoadBalancer, Location::kSmartNic},
      {NfType::kLoadBalancer, Location::kCpu},
  };
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  for (const auto& cell : cells) {
    ChainBuilder builder{"isolated"};
    builder.egress(cell.loc == Location::kSmartNic ? Attachment::kWire
                                                   : Attachment::kHost);
    builder.add(cell.type, "nf", cell.loc);
    const auto chain = builder.build();
    const Gbps cap = analyzer.max_sustainable_rate(chain);

    const SimReport below = measure(chain, cap * 0.9, 512);
    EXPECT_EQ(below.dropped_queue_nic + below.dropped_queue_cpu, 0u)
        << to_string(cell.type) << " on " << to_string(cell.loc) << " @0.9x";

    const SimReport above = measure(chain, cap * 1.15, 512);
    EXPECT_GT(above.dropped_queue_nic + above.dropped_queue_cpu, 0u)
        << to_string(cell.type) << " on " << to_string(cell.loc) << " @1.15x";
    EXPECT_NEAR(above.egress_goodput.value(), cap.value(), cap.value() * 0.1)
        << to_string(cell.type) << " on " << to_string(cell.loc);
  }
}

TEST(PaperHeadline, FullPipelineAtOverloadRate) {
  // The one-line claim: during the overload, PAM's measured mean latency is
  // lower than the naive migration's at every packet size in the sweep.
  const Scenario s;
  for (const std::size_t size : paper_size_sweep()) {
    const double pam_us =
        measure(s.after_pam, paper_overload_rate(), size).latency.mean().us();
    const double naive_us =
        measure(s.after_naive, paper_overload_rate(), size).latency.mean().us();
    EXPECT_LT(pam_us, naive_us) << "size " << size;
  }
}

}  // namespace
}  // namespace pam
