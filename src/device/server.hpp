// The server topology: one SmartNIC + one CPU complex joined by PCIe —
// the paper's testbed ("a server equipped with one Netronome Agilio CX
// 2x10GbE SmartNIC, two Intel Xeon E5-2620 v2 CPUs, and 128G RAM").

#pragma once

#include <string>

#include "device/device.hpp"
#include "device/pcie.hpp"

namespace pam {

class Server {
 public:
  Server(SmartNic nic, CpuSocket cpu, PcieLink pcie)
      : nic_(std::move(nic)), cpu_(std::move(cpu)), pcie_(std::move(pcie)) {}

  /// The paper's testbed with the calibrated PCIe link.
  [[nodiscard]] static Server paper_testbed();

  [[nodiscard]] SmartNic& nic() noexcept { return nic_; }
  [[nodiscard]] const SmartNic& nic() const noexcept { return nic_; }
  [[nodiscard]] CpuSocket& cpu() noexcept { return cpu_; }
  [[nodiscard]] const CpuSocket& cpu() const noexcept { return cpu_; }
  [[nodiscard]] PcieLink& pcie() noexcept { return pcie_; }
  [[nodiscard]] const PcieLink& pcie() const noexcept { return pcie_; }

  [[nodiscard]] std::string describe() const;

 private:
  SmartNic nic_;
  CpuSocket cpu_;
  PcieLink pcie_;
};

}  // namespace pam
