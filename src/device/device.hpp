// Device identity: the SmartNIC and the CPU complex of the paper's
// testbed.  Device load (Σ θ_cur/θ^D_i, Eqs. 2/3) is ChainAnalyzer's job;
// these classes carry only the hardware facts it and the reports read.

#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/units.hpp"

namespace pam {

/// The NPU-based SmartNIC: port count and speed, which give the wire
/// capacity ChainAnalyzer checks and the server description prints.
class SmartNic final {
 public:
  SmartNic(std::string name, std::uint32_t ports, Gbps port_speed)
      : name_(std::move(name)), ports_(ports), port_speed_(port_speed) {}

  /// Netronome Agilio CX 2x10GbE — the paper's testbed NIC.
  [[nodiscard]] static SmartNic agilio_cx();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t ports() const noexcept { return ports_; }
  [[nodiscard]] Gbps port_speed() const noexcept { return port_speed_; }
  [[nodiscard]] Gbps wire_capacity() const noexcept {
    return port_speed_ * static_cast<double>(ports_);
  }

 private:
  std::string name_;
  std::uint32_t ports_;
  Gbps port_speed_;
};

/// The host CPU complex.
class CpuSocket final {
 public:
  CpuSocket(std::string name, std::uint32_t cores, double base_ghz)
      : name_(std::move(name)), cores_(cores), base_ghz_(base_ghz) {}

  /// 2x Intel Xeon E5-2620 v2 (2.10 GHz, 6 physical cores each) — the
  /// paper's testbed host, modelled as one 12-core complex.
  [[nodiscard]] static CpuSocket xeon_e5_2620_v2_pair();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t cores() const noexcept { return cores_; }
  [[nodiscard]] double base_ghz() const noexcept { return base_ghz_; }

 private:
  std::string name_;
  std::uint32_t cores_;
  double base_ghz_;
};

}  // namespace pam
