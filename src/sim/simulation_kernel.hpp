// The reusable discrete-event engine shared by every simulator frontend.
//
// SimulationKernel holds what is not specific to "one chain on one
// server": the deterministic EventQueue, the mempool-style PacketPool, the
// measurement-window bookkeeping (warmup/horizon), the end-of-run drain
// that makes packet conservation exact, and the single horizon-bounded
// `schedule_periodic` implementation used by the per-server controller
// loop and the fleet controller alike.
//
// Frontends:
//   - ChainSimulator      one chain, advancing on the kernel it is handed;
//   - ClusterSimulator    one rack: one kernel, N servers x M chains on
//                         the same queue and pool.  DatacenterSimulator
//                         alone advances a rack's kernel, epoch by epoch
//                         (arm + advance_until + begin_drain), and every
//                         chain runs in a rack, a single chain included.
//
// Determinism: the kernel adds no randomness of its own; with seeded
// frontends, identical inputs give bit-identical runs.

#pragma once

#include <deque>
#include <functional>

#include "common/units.hpp"
#include "packet/packet_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/fcfs_server.hpp"

namespace pam {

struct Calibration;

class SimulationKernel final : public EventSink {
 public:
  SimulationKernel() = default;

  SimulationKernel(const SimulationKernel&) = delete;
  SimulationKernel& operator=(const SimulationKernel&) = delete;

  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] PacketPool& pool() noexcept { return pool_; }
  [[nodiscard]] const PacketPool& pool() const noexcept { return pool_; }

  [[nodiscard]] SimTime now() const noexcept { return queue_.now(); }
  [[nodiscard]] SimTime warmup() const noexcept { return warmup_; }
  [[nodiscard]] SimTime horizon() const noexcept { return horizon_; }

  /// True inside the measurement window [warmup, horizon].
  [[nodiscard]] bool metering() const noexcept {
    return queue_.now() >= warmup_ && queue_.now() <= horizon_;
  }
  /// True once the horizon has been reached and the drain phase started;
  /// traffic sources use this to stop injecting.
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  void schedule_at(SimTime at, std::function<void()> fn) {
    queue_.schedule_at(at, std::move(fn));
  }
  void schedule_after(SimTime delay, std::function<void()> fn) {
    queue_.schedule_after(delay, std::move(fn));
  }

  /// Periodic callback every `period` starting at `start`; stops when the
  /// run's horizon is reached.  The kernel keeps the one callback instance
  /// (stateful callbacks keep their state across firings); each firing is
  /// a record naming it, so destroying the kernel reclaims it.
  void schedule_periodic(SimTime start, SimTime period, std::function<void()> fn);

  /// Single-shot: arms the measurement window, runs events until the clock
  /// reaches `duration`, then drains the queue unmetered so in-flight work
  /// completes and packet conservation is exact.
  void run(SimTime duration, SimTime warmup);

  // --- epoch-stepped execution (sharded datacenter mode) --------------------
  //
  // `run()` decomposes into three primitives so a DatacenterSimulator can
  // advance many kernels in lock-step epochs: `arm` opens the measurement
  // window without executing anything, `advance_until` runs events up to an
  // epoch barrier (the clock lands exactly on the barrier), and
  // `begin_drain` flips `stopped()` so traffic sources quit while queued
  // work keeps completing in later (unmetered) epochs.  `run(d, w)` is
  // exactly arm + advance_until(d) + begin_drain + run the queue dry.

  /// Arms the measurement window for epoch-stepped execution.  Single-shot,
  /// like run().
  void arm(SimTime duration, SimTime warmup);

  /// Runs events until the clock reaches epoch barrier `t`.
  void advance_until(SimTime t) { queue_.run_until(t); }

  /// Starts the drain phase: sources observe stopped() and quit; remaining
  /// events run unmetered via further advance_until calls.
  void begin_drain() noexcept { stopped_ = true; }

 private:
  struct PeriodicTask {
    std::function<void()> fn;
    SimTime period;
  };

  /// One firing of periodic task `ev.a`.
  void on_event(const EventRecord& ev) override;

  EventQueue queue_;
  /// Starts empty and grows on acquire to the run's in-flight high-water
  /// mark, so a rack whose chains never inject holds no packets at all.
  PacketPool pool_{0};
  /// A deque, so a task that registers another keeps its address.
  std::deque<PeriodicTask> periodic_tasks_;
  SimTime warmup_ = SimTime::zero();
  SimTime horizon_ = SimTime::zero();
  bool stopped_ = false;
  bool ran_ = false;
};

/// The three FCFS queueing contexts of one physical server — NPU complex,
/// CPU complex, PCIe link — bound to a kernel's event queue.  Every chain
/// homed on (or offloaded to) the same rack slot shares the slot's
/// instance, so co-located chains contend for the same hardware.  `tag`
/// suffixes the device names (the rack names its slots "[s]").
struct ServerDevices {
  ServerDevices(EventQueue& queue, const Calibration& calibration,
                const std::string& tag);

  FcfsServer nic;
  FcfsServer cpu;
  FcfsServer pcie;
};

}  // namespace pam
