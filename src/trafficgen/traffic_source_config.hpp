// Configuration bundle describing one traffic source — the simulator's
// stand-in for the paper's DPDK packet sender.

#pragma once

#include <cstdint>

#include "trafficgen/flow_generator.hpp"
#include "trafficgen/packet_size_dist.hpp"
#include "trafficgen/rate_profile.hpp"

namespace pam {

enum class ArrivalProcess : std::uint8_t {
  kCbr,      ///< constant bit rate: deterministic inter-arrivals
  kPoisson,  ///< exponential inter-arrivals at the same mean rate
};

struct TrafficSourceConfig {
  RateProfile rate = RateProfile::constant(Gbps{1.0});
  ArrivalProcess process = ArrivalProcess::kCbr;
  PacketSizeDistribution sizes = PacketSizeDistribution::fixed(512);
  FlowGeneratorConfig flows{};
  std::uint64_t seed = 1;
};

}  // namespace pam
