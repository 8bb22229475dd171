// One chain on a one-rack, one-slot DatacenterSimulator: the way every
// test drives a single chain, as the runner does for compare, capacity and
// timeline scenarios.  Schedule perturbations on sim().kernel() before
// run(); run() reads the chain's own report, never the fleet total.

#pragma once

#include <utility>

#include "sim/datacenter_simulator.hpp"

namespace pam {

class OneChain {
 public:
  OneChain(ServiceChain chain, TrafficSourceConfig traffic)
      : dc_{DatacenterSimulator::Options{}} {
    dc_.add_chain(std::move(chain), std::move(traffic), 0);
  }

  [[nodiscard]] ChainSimulator& sim() { return dc_.chain_sim(0); }
  [[nodiscard]] DatacenterSimulator& dc() { return dc_; }

  /// Runs to `duration` on one thread, drains, and returns the chain's
  /// report (metrics cover [warmup, duration]).  Single-shot.
  SimReport run(SimTime duration, SimTime warmup) {
    dc_.run(duration, warmup, /*threads=*/1);
    return sim().build_report();
  }

 private:
  DatacenterSimulator dc_;
};

}  // namespace pam
