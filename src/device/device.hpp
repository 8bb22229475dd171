// Device identity: the SmartNIC and the CPU complex of the paper's
// testbed.  Device load (Σ θ_cur/θ^D_i, Eqs. 2/3) is ChainAnalyzer's job;
// these classes carry only the hardware facts it and the reports read.

#pragma once

#include <string>

#include "common/units.hpp"
#include "nf/nf_spec.hpp"

namespace pam {

class Device {
 public:
  Device(std::string name, Location location)
      : name_(std::move(name)), location_(location) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Location location() const noexcept { return location_; }

 private:
  std::string name_;
  Location location_;
};

/// The NPU-based SmartNIC: port count and speed, which give the wire
/// capacity ChainAnalyzer checks and the server description prints.
class SmartNic final : public Device {
 public:
  SmartNic(std::string name, std::uint32_t ports, Gbps port_speed)
      : Device(std::move(name), Location::kSmartNic),
        ports_(ports),
        port_speed_(port_speed) {}

  /// Netronome Agilio CX 2x10GbE — the paper's testbed NIC.
  [[nodiscard]] static SmartNic agilio_cx();

  [[nodiscard]] std::uint32_t ports() const noexcept { return ports_; }
  [[nodiscard]] Gbps port_speed() const noexcept { return port_speed_; }
  [[nodiscard]] Gbps wire_capacity() const noexcept {
    return port_speed_ * static_cast<double>(ports_);
  }

 private:
  std::uint32_t ports_;
  Gbps port_speed_;
};

/// The host CPU complex.
class CpuSocket final : public Device {
 public:
  CpuSocket(std::string name, std::uint32_t cores, double base_ghz)
      : Device(std::move(name), Location::kCpu), cores_(cores), base_ghz_(base_ghz) {}

  /// 2x Intel Xeon E5-2620 v2 (2.10 GHz, 6 physical cores each) — the
  /// paper's testbed host, modelled as one 12-core complex.
  [[nodiscard]] static CpuSocket xeon_e5_2620_v2_pair();

  [[nodiscard]] std::uint32_t cores() const noexcept { return cores_; }
  [[nodiscard]] double base_ghz() const noexcept { return base_ghz_; }

 private:
  std::uint32_t cores_;
  double base_ghz_;
};

}  // namespace pam
