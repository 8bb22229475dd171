// Runtime NF migration between SmartNIC and CPU — the UNO mechanism [4] the
// paper adopts, with OpenNF-style loss-freedom [1].
//
// Executing one MigrationStep inside a running simulation:
//
//   1. pause   — the chain keeps running, but packets reaching the migrating
//                NF are parked in an unbounded buffer (no loss).
//   2. snapshot— export_state() on the live instance; the blob's size
//                determines the transfer time.
//   3. transfer— control-plane setup cost + the blob serialised over the
//                PCIe link model.
//   4. restore — a fresh instance is created at the destination and
//                import_state() replays the snapshot; the chain's placement
//                flips.
//   5. resume  — parked packets flush through the NF at its new location.
//
// The engine records per-step timings and buffer depths so tests can assert
// loss-freedom and benches can report migration downtime.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/migration_plan.hpp"
#include "sim/chain_simulator.hpp"

namespace pam {

struct MigrationRecord {
  std::string nf_name;
  Location from = Location::kSmartNic;
  Location to = Location::kCpu;
  SimTime started = SimTime::zero();
  SimTime completed = SimTime::zero();
  Bytes state_size{0};
  std::uint64_t packets_buffered = 0;

  [[nodiscard]] SimTime downtime() const noexcept { return completed - started; }
};

struct MigrationEngineOptions {
  /// Control-plane setup per migration (flow-table updates, rule install).
  SimTime control_overhead = SimTime::microseconds(500.0);
  /// Floor on transfer time (one DMA round trip even for empty state).
  SimTime min_transfer = SimTime::microseconds(50.0);
};

class MigrationEngine {
 public:
  explicit MigrationEngine(ChainSimulator& sim, MigrationEngineOptions options = {});

  /// Executes the plan's steps sequentially inside simulated time, then
  /// invokes `on_done` (if any).  Steps of an infeasible plan are not
  /// executed.
  void execute(const MigrationPlan& plan, std::function<void()> on_done = {});

  [[nodiscard]] const std::vector<MigrationRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] bool busy() const noexcept { return busy_; }

 private:
  void run_step(std::shared_ptr<MigrationPlan> plan, std::size_t step_index,
                std::function<void()> on_done);

  ChainSimulator& sim_;
  MigrationEngineOptions options_;
  std::vector<MigrationRecord> records_;
  bool busy_ = false;
};

}  // namespace pam
