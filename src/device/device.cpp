#include "device/device.hpp"

namespace pam {

using namespace pam::literals;

SmartNic SmartNic::agilio_cx() {
  return SmartNic{"agilio-cx", 2, 10.0_gbps};
}

CpuSocket CpuSocket::xeon_e5_2620_v2_pair() {
  return CpuSocket{"xeon-e5-2620v2-x2", 12, 2.10};
}

}  // namespace pam
