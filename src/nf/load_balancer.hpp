// L4 load balancer with consistent hashing.
//
// Rewrites the destination address of each packet to one of a set of backend
// servers.  Flow affinity matters (a TCP connection must keep hitting the
// same backend), so the balancer consults a connection table first and the
// consistent-hash ring only on the first packet of a flow; the ring uses
// virtual nodes for even spread, and backend removal only remaps the flows
// that hashed to the removed backend.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nf/network_function.hpp"

namespace pam {

struct Backend {
  std::uint32_t ip = 0;  ///< host order
  std::uint16_t port = 0;
  std::string label;
};

/// Consistent-hash ring over backends, separable from the NF for testing.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(std::uint32_t vnodes_per_backend = 64);

  void add(const Backend& backend);
  bool remove(std::uint32_t backend_ip);
  [[nodiscard]] std::size_t backend_count() const noexcept { return backends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }

  /// Backend owning `key`'s hash; requires a non-empty ring.
  [[nodiscard]] const Backend& pick(const FiveTuple& key) const;

  [[nodiscard]] const std::vector<Backend>& backends() const noexcept { return backends_; }
  [[nodiscard]] std::uint32_t vnodes_per_backend() const noexcept { return vnodes_; }

 private:
  std::uint32_t vnodes_;
  std::vector<Backend> backends_;
  /// (hash point, backend ip), sorted by point, one entry per point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

class LoadBalancer final : public NetworkFunction {
 public:
  explicit LoadBalancer(std::string name, std::uint32_t vnodes_per_backend = 64);

  [[nodiscard]] NfType type() const noexcept override { return NfType::kLoadBalancer; }

  void add_backend(const Backend& backend);
  bool remove_backend(std::uint32_t backend_ip);
  [[nodiscard]] std::size_t backend_count() const noexcept { return ring_.backend_count(); }

  /// Packets assigned to each backend so far (for balance tests).
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint64_t>&
  per_backend_packets() const noexcept {
    return backend_packets_;
  }
  [[nodiscard]] std::size_t tracked_flows() const noexcept { return flow_table_.size(); }

  [[nodiscard]] NfState export_state() const override;
  void import_state(const NfState& state) override;

 protected:
  [[nodiscard]] Verdict process(Packet& pkt, SimTime now) override;

 private:
  ConsistentHashRing ring_;
  std::unordered_map<FiveTuple, std::uint32_t, FiveTupleHash> flow_table_;
  std::unordered_map<std::uint32_t, std::uint64_t> backend_packets_;
};

}  // namespace pam
