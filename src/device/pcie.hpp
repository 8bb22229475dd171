// PCIe link model between the SmartNIC and the host.
//
// The poster's central observation is that each extra traversal of this link
// costs "tens of microseconds"; its stated future work is to "analyze PCIe
// transmissions in detail".  Both are covered here:
//
//   - kSimple: per-crossing fixed latency + serialisation at link bandwidth.
//   - kDetailed: decomposes the fixed cost into DMA descriptor handling,
//     doorbell/MMIO, interrupt-moderation delay and batching amortisation,
//     so ablation benches can sweep the individual components.
//
// Crossings also consume *host-side* resources (driver rx/tx work); the
// model exposes that as an equivalent-throughput cost which the chain
// analyzer charges to the CPU — this is what makes many-crossing layouts
// lose throughput, matching the paper's Figure 2(b).

#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace pam {

enum class PcieModelKind : std::uint8_t {
  kSimple,
  kDetailed,
};

struct PcieDetailedParams {
  SimTime dma_descriptor = SimTime::microseconds(6.0);   ///< descriptor fetch + writeback
  SimTime doorbell = SimTime::microseconds(2.0);         ///< MMIO write, posted
  SimTime interrupt_moderation = SimTime::microseconds(16.0);  ///< rx coalescing delay
  SimTime driver_processing = SimTime::microseconds(8.0);      ///< softirq/driver work
  std::uint32_t batch_size = 8;  ///< frames amortising one doorbell+interrupt
};

class PcieLink {
 public:
  /// `bandwidth`: usable link bandwidth (PCIe 3.0 x8 ≈ 32 Gbps effective).
  /// `fixed_latency`: per-crossing one-way cost charged per packet (Simple).
  /// `host_cost_rate`: equivalent throughput capacity of host-side
  /// per-crossing driver work; each crossing carrying θ consumes θ/rate of
  /// CPU resource.
  PcieLink(Gbps bandwidth, SimTime fixed_latency, Gbps host_cost_rate);

  /// Calibrated default matching DESIGN.md §6 (32 µs/crossing, 32 Gbps,
  /// host cost 40 Gbps-equivalent).
  [[nodiscard]] static PcieLink calibrated_default();

  [[nodiscard]] Gbps bandwidth() const noexcept { return bandwidth_; }
  [[nodiscard]] Gbps host_cost_rate() const noexcept { return host_cost_rate_; }
  [[nodiscard]] PcieModelKind kind() const noexcept { return kind_; }

  void use_detailed_model(const PcieDetailedParams& params) noexcept;

  /// One-way latency for a frame of `size`: fixed cost + serialisation.
  [[nodiscard]] SimTime crossing_latency(Bytes size) const noexcept;

  /// The fixed (size-independent) part of crossing_latency.
  [[nodiscard]] SimTime fixed_cost() const noexcept;

  /// CPU resource fraction consumed by crossings carrying `offered`
  /// aggregate throughput (charged once per crossing).
  [[nodiscard]] double host_utilization_per_crossing(Gbps offered) const noexcept {
    return offered.value() / host_cost_rate_.value();
  }

  /// Link utilisation for `offered` aggregate throughput over `crossings`
  /// traversals.
  [[nodiscard]] double link_utilization(Gbps offered, std::uint32_t crossings) const noexcept {
    return offered.value() * static_cast<double>(crossings) / bandwidth_.value();
  }

  [[nodiscard]] std::string describe() const;

 private:
  Gbps bandwidth_;
  SimTime simple_fixed_latency_;
  Gbps host_cost_rate_;
  PcieModelKind kind_ = PcieModelKind::kSimple;
  PcieDetailedParams detailed_{};
};

}  // namespace pam
