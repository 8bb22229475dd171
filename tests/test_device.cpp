// Device identity and PCIe link tests — the substrate Eq. 2/3 run on.

#include <gtest/gtest.h>

#include "device/server.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TEST(SmartNic, AgilioCxMatchesPaperTestbed) {
  const SmartNic nic = SmartNic::agilio_cx();
  EXPECT_EQ(nic.ports(), 2u);
  EXPECT_DOUBLE_EQ(nic.port_speed().value(), 10.0);
  EXPECT_DOUBLE_EQ(nic.wire_capacity().value(), 20.0);
}

TEST(CpuSocket, XeonPairMatchesPaperTestbed) {
  const CpuSocket cpu = CpuSocket::xeon_e5_2620_v2_pair();
  EXPECT_EQ(cpu.cores(), 12u);  // 2 sockets x 6 physical cores
  EXPECT_DOUBLE_EQ(cpu.base_ghz(), 2.10);
}

TEST(PcieLink, SimpleCrossingLatency) {
  PcieLink link{32_gbps, SimTime::microseconds(32), 40_gbps};
  // fixed 32 us + 1500*8/32e9 = 32.375 us.
  EXPECT_EQ(link.crossing_latency(Bytes{1500}).ns(), 32'375);
  EXPECT_EQ(link.fixed_cost().us(), 32.0);
}

TEST(PcieLink, LatencyGrowsWithSize) {
  const PcieLink link = PcieLink::calibrated_default();
  EXPECT_LT(link.crossing_latency(Bytes{64}), link.crossing_latency(Bytes{1500}));
}

TEST(PcieLink, HostUtilizationPerCrossing) {
  PcieLink link{32_gbps, SimTime::microseconds(32), 40_gbps};
  EXPECT_DOUBLE_EQ(link.host_utilization_per_crossing(2_gbps), 0.05);
}

TEST(PcieLink, LinkUtilizationScalesWithCrossings) {
  PcieLink link{32_gbps, SimTime::microseconds(32), 40_gbps};
  EXPECT_DOUBLE_EQ(link.link_utilization(2_gbps, 1), 0.0625);
  EXPECT_DOUBLE_EQ(link.link_utilization(2_gbps, 4), 0.25);
}

TEST(PcieLink, DetailedModelDecomposesFixedCost) {
  PcieLink link = PcieLink::calibrated_default();
  PcieDetailedParams params;
  params.dma_descriptor = SimTime::microseconds(6);
  params.doorbell = SimTime::microseconds(2);
  params.interrupt_moderation = SimTime::microseconds(16);
  params.driver_processing = SimTime::microseconds(8);
  params.batch_size = 8;
  link.use_detailed_model(params);
  EXPECT_EQ(link.kind(), PcieModelKind::kDetailed);
  // 6 + (2+16+8)/8 + 16/2 = 6 + 3.25 + 8 = 17.25 us.
  EXPECT_NEAR(link.fixed_cost().us(), 17.25, 0.01);
}

TEST(PcieLink, DetailedBatchSizeOneNoAmortisation) {
  PcieLink link = PcieLink::calibrated_default();
  PcieDetailedParams params;
  params.batch_size = 1;
  link.use_detailed_model(params);
  // 6 + (2+16+8)/1 + 8 = 40 us.
  EXPECT_NEAR(link.fixed_cost().us(), 40.0, 0.01);
}

TEST(PcieLink, LargerBatchesCutPerPacketCost) {
  PcieLink a = PcieLink::calibrated_default();
  PcieLink b = PcieLink::calibrated_default();
  PcieDetailedParams small;
  small.batch_size = 1;
  PcieDetailedParams large;
  large.batch_size = 32;
  a.use_detailed_model(small);
  b.use_detailed_model(large);
  EXPECT_GT(a.fixed_cost(), b.fixed_cost());
}

TEST(Server, PaperTestbedComposition) {
  Server server = Server::paper_testbed();
  EXPECT_DOUBLE_EQ(server.pcie().bandwidth().value(), 32.0);
  EXPECT_FALSE(server.describe().empty());
}

}  // namespace
}  // namespace pam
