// Flow-level traffic structure.
//
// Generates the 5-tuples carried by the packet stream: a configurable
// population of flows with Zipf-skewed popularity (a handful of heavy
// hitters plus a long tail — the structure the Monitor NF's Space-Saving
// sketch is built for), deterministic given the seed.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "packet/five_tuple.hpp"

namespace pam {

struct FlowGeneratorConfig {
  std::size_t flow_count = 256;
  double zipf_skew = 1.1;       ///< 0 == uniform popularity
  std::uint32_t client_net = (10u << 24);          ///< 10.0.0.0/8 clients
  std::uint32_t service_ip = (192u << 24) | (0u << 16) | (2u << 8) | 10u;  ///< 192.0.2.10
  std::uint16_t service_port = 443;
  double tcp_fraction = 0.7;    ///< rest UDP
};

class FlowGenerator {
 public:
  explicit FlowGenerator(FlowGeneratorConfig config, std::uint64_t seed);

  /// The tuple for the next packet (samples a flow by popularity).
  [[nodiscard]] const FiveTuple& next(Rng& rng);

  [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }
  [[nodiscard]] const std::vector<FiveTuple>& flows() const noexcept { return flows_; }

 private:
  std::vector<FiveTuple> flows_;
  /// Popularity table; null for uniform popularity.  Shared read-only by
  /// every generator with the default (flow_count, zipf_skew).
  std::shared_ptr<const ZipfTable> zipf_;
};

}  // namespace pam
