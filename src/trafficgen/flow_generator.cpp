#include "trafficgen/flow_generator.hpp"

#include <cassert>

namespace pam {
namespace {

/// The Zipf table for (n, s).  Every chain draws from the default
/// population, so its table is built once, on the thread that constructs
/// the first generator, and shared: a function-local static, not
/// thread-local state, because epoch workers exit after each run.
std::shared_ptr<const ZipfTable> zipf_table(std::size_t n, double s) {
  constexpr FlowGeneratorConfig kDefault{};
  if (n == kDefault.flow_count && s == kDefault.zipf_skew) {
    static const auto shared = std::make_shared<const ZipfTable>(n, s);
    return shared;
  }
  return std::make_shared<const ZipfTable>(n, s);
}

}  // namespace

FlowGenerator::FlowGenerator(FlowGeneratorConfig config, std::uint64_t seed)
    : zipf_(config.zipf_skew > 0.0 ? zipf_table(config.flow_count, config.zipf_skew)
                                   : nullptr) {
  assert(config.flow_count > 0);
  Rng build_rng{seed};
  flows_.reserve(config.flow_count);
  for (std::size_t i = 0; i < config.flow_count; ++i) {
    FiveTuple t;
    // Distinct client address + ephemeral port per flow.
    t.src_ip = config.client_net | static_cast<std::uint32_t>(build_rng.uniform_u64(1, (1u << 24) - 2));
    t.src_port = static_cast<std::uint16_t>(build_rng.uniform_u64(1024, 65535));
    t.dst_ip = config.service_ip;
    t.dst_port = config.service_port;
    t.proto = build_rng.chance(config.tcp_fraction) ? IpProto::kTcp : IpProto::kUdp;
    flows_.push_back(t);
  }
}

const FiveTuple& FlowGenerator::next(Rng& rng) {
  if (!zipf_) {
    return flows_[rng.bounded(flows_.size())];
  }
  return flows_[rng.zipf(*zipf_)];
}

}  // namespace pam
