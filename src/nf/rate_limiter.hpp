// Token-bucket rate limiter (policer).
//
// Classic single-rate two-colour policer: tokens accrue at `rate`, a packet
// passes when the bucket holds at least its wire size in tokens, otherwise it
// is dropped.  Burst tolerance is the bucket depth.  Refill is computed
// lazily from simulated time, so the NF needs no timer events.

#pragma once

#include "nf/network_function.hpp"

namespace pam {

class RateLimiter final : public NetworkFunction {
 public:
  RateLimiter(std::string name, Gbps rate, Bytes burst = Bytes::kib(256));

  [[nodiscard]] NfType type() const noexcept override { return NfType::kRateLimiter; }

  [[nodiscard]] Gbps rate() const noexcept { return rate_; }
  [[nodiscard]] Bytes burst() const noexcept { return burst_; }
  [[nodiscard]] double tokens() const noexcept { return tokens_; }

  [[nodiscard]] NfState export_state() const override;
  void import_state(const NfState& state) override;

 protected:
  [[nodiscard]] Verdict process(Packet& pkt, SimTime now) override;

 private:
  void refill(SimTime now) noexcept;

  Gbps rate_;
  Bytes burst_;
  double tokens_;  ///< bytes
  SimTime last_refill_ = SimTime::zero();
  bool primed_ = false;
};

}  // namespace pam
