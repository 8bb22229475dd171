// Cross-validation property suite (DESIGN.md §7.5): the analytic model and
// the discrete-event simulator must agree on utilisation, goodput and
// low-load latency over randomised chains — this is what makes the analytic
// numbers in the benches trustworthy.

#include <gtest/gtest.h>

#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "common/rng.hpp"
#include "one_chain.hpp"

namespace pam {
namespace {

using namespace pam::literals;

struct Scenario {
  ServiceChain chain{"x"};
  Gbps rate{0.0};
};

/// Random chain + a rate keeping every device below ~0.85 so the analytic
/// queueing regime is valid.
Scenario random_subcritical_scenario(std::uint64_t seed) {
  Rng rng{seed};
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const NfType types[] = {NfType::kFirewall, NfType::kLogger, NfType::kMonitor,
                          NfType::kLoadBalancer, NfType::kNat, NfType::kDpi,
                          NfType::kRateLimiter, NfType::kEncryptor};
  for (int attempt = 0; attempt < 50; ++attempt) {
    ChainBuilder builder{"rand"};
    builder.egress(rng.chance(0.5) ? Attachment::kWire : Attachment::kHost);
    const std::size_t n = 1 + rng.bounded(5);
    for (std::size_t i = 0; i < n; ++i) {
      builder.add(types[rng.bounded(8)], "nf" + std::to_string(i),
                  rng.chance(0.6) ? Location::kSmartNic : Location::kCpu,
                  rng.chance(0.3) ? 0.5 : 1.0);
    }
    Scenario s;
    s.chain = builder.build();
    const Gbps cap = analyzer.max_sustainable_rate(s.chain);
    s.rate = cap * rng.uniform(0.2, 0.7);
    if (s.rate.value() > 0.05 && s.rate.value() < 15.0) {
      return s;
    }
  }
  Scenario fallback;
  fallback.chain = paper_figure1_chain();
  fallback.rate = 1.0_gbps;
  return fallback;
}

class ModelAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelAgreement, UtilizationMatches) {
  const Scenario s = random_subcritical_scenario(GetParam() * 0x9e3779b9ull);
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(s.rate);
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = GetParam();
  OneChain one{s.chain, cfg};
  const SimReport report = one.run(SimTime::milliseconds(50), SimTime::milliseconds(10));

  const auto predicted = analyzer.utilization(s.chain, s.rate);
  EXPECT_NEAR(report.smartnic_utilization, predicted.smartnic,
              predicted.smartnic * 0.15 + 0.02)
      << s.chain.describe() << " @ " << s.rate.to_string();
  EXPECT_NEAR(report.cpu_utilization, predicted.cpu, predicted.cpu * 0.15 + 0.02)
      << s.chain.describe() << " @ " << s.rate.to_string();
  EXPECT_NEAR(report.pcie_utilization, predicted.pcie, predicted.pcie * 0.15 + 0.02)
      << s.chain.describe();
}

TEST_P(ModelAgreement, GoodputMatches) {
  const Scenario s = random_subcritical_scenario(GetParam() * 0x85ebca6bull);
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(s.rate);
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = GetParam() + 1;
  OneChain one{s.chain, cfg};
  const SimReport report = one.run(SimTime::milliseconds(50), SimTime::milliseconds(10));

  const Gbps predicted = analyzer.predicted_goodput(s.chain, s.rate);
  EXPECT_NEAR(report.egress_goodput.value(), predicted.value(),
              predicted.value() * 0.12 + 0.02)
      << s.chain.describe();
}

TEST_P(ModelAgreement, LowLoadLatencyMatchesStructural) {
  const Scenario s = random_subcritical_scenario(GetParam() * 0xc2b2ae35ull);
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(s.rate * 0.15);  // very light load
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = GetParam() + 2;
  OneChain one{s.chain, cfg};
  const SimReport report = one.run(SimTime::milliseconds(60), SimTime::milliseconds(10));
  if (report.measured_delivered < 50) {
    GTEST_SKIP() << "not enough deliveries for a stable mean";
  }
  // At light load queueing vanishes; DES mean ~= structural prediction.
  // Drop-heavy chains (pass_ratio via firewall policy) still deliver some.
  const SimTime structural = analyzer.structural_latency(s.chain, Bytes{512});
  EXPECT_NEAR(report.latency.mean().us(), structural.us(), structural.us() * 0.12)
      << s.chain.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelAgreement,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace pam
