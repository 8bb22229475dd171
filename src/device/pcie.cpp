#include "device/pcie.hpp"

#include <cassert>

#include "common/strings.hpp"

namespace pam {

using namespace pam::literals;

PcieLink::PcieLink(Gbps bandwidth, SimTime fixed_latency, Gbps host_cost_rate)
    : bandwidth_(bandwidth),
      simple_fixed_latency_(fixed_latency),
      host_cost_rate_(host_cost_rate) {
  assert(bandwidth.value() > 0.0 && host_cost_rate.value() > 0.0);
}

PcieLink PcieLink::calibrated_default() {
  return PcieLink{32.0_gbps, SimTime::microseconds(32.0), 40.0_gbps};
}

void PcieLink::use_detailed_model(const PcieDetailedParams& params) noexcept {
  kind_ = PcieModelKind::kDetailed;
  detailed_ = params;
  if (detailed_.batch_size == 0) {
    detailed_.batch_size = 1;
  }
}

SimTime PcieLink::fixed_cost() const noexcept {
  if (kind_ == PcieModelKind::kSimple) {
    return simple_fixed_latency_;
  }
  // Per-frame: descriptor work always; doorbell + interrupt moderation +
  // driver processing amortised over the batch, plus half the batch-fill
  // time is already accounted in interrupt_moderation.
  const double batch = static_cast<double>(detailed_.batch_size);
  const auto amortised =
      SimTime::nanoseconds(static_cast<std::int64_t>(
          static_cast<double>((detailed_.doorbell + detailed_.interrupt_moderation +
                               detailed_.driver_processing)
                                  .ns()) /
          batch));
  return detailed_.dma_descriptor + amortised +
         SimTime::nanoseconds(static_cast<std::int64_t>(
             static_cast<double>(detailed_.interrupt_moderation.ns()) * 0.5));
}

SimTime PcieLink::crossing_latency(Bytes size) const noexcept {
  return fixed_cost() + serialization_delay(size, bandwidth_);
}

std::string PcieLink::describe() const {
  return format("PCIe[%s, fixed=%s, host-cost=%s, model=%s]",
                bandwidth_.to_string().c_str(), fixed_cost().to_string().c_str(),
                host_cost_rate_.to_string().c_str(),
                kind_ == PcieModelKind::kSimple ? "simple" : "detailed");
}

}  // namespace pam
