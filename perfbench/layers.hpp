// Per-layer costs and counts for the traced run.
//
// Every layer cost comes from replaying that layer's public calls on the
// workload's own inputs (its placed chains, frame sizes, arrival process,
// shard and thread counts), timed from outside the library.  Counts come
// from the run's report where the report exposes them, else from a short
// replay simulation of the same chains driven through the public
// ChainSimulator / FcfsServer / NetworkFunction counters.

#pragma once

#include <string>
#include <vector>

#include "experiment/scenario_runner.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One ledger line: a layer's cost per operation times its operations per
/// simulated packet.
struct LedgerRow {
  std::string layer;
  double ns_per_op = 0.0;
  double ops_per_pkt = 0.0;
};

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<LedgerRow> ledger;
};

/// Measures every layer on the inputs of `result` (a finished run of
/// `result.spec`).  Spans go to `tracer` under run id `run`.
[[nodiscard]] LayerReport measure_layers(const pam::RunResult& result,
                                         Tracer& tracer, int run);

/// Packets injected by the simulator, summed over every chain and DES run.
[[nodiscard]] std::uint64_t injected_packets(const pam::RunResult& result);

}  // namespace perfbench
