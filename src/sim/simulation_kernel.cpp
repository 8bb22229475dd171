#include "sim/simulation_kernel.hpp"

#include <cassert>

#include "chain/calibration.hpp"

namespace pam {

namespace {
constexpr std::size_t kPcieQueueFactor = 4;  // link ring deeper than NF queues
}

void SimulationKernel::schedule_periodic(SimTime start, SimTime period,
                                         std::function<void()> fn) {
  assert(period.ns() > 0);
  EventRecord tick;
  tick.sink = this;
  tick.a = periodic_tasks_.size();
  periodic_tasks_.push_back(PeriodicTask{std::move(fn), period});
  queue_.schedule_at(start, tick);
}

void SimulationKernel::on_event(const EventRecord& ev) {
  if (stopped_ || queue_.now() > horizon_) {
    return;
  }
  PeriodicTask& task = periodic_tasks_[ev.a];
  task.fn();
  queue_.schedule_after(task.period, ev);
}

void SimulationKernel::arm(SimTime duration, SimTime warmup) {
  assert(!ran_ && "SimulationKernel::arm/run is single-shot");
  assert(warmup < duration);
  ran_ = true;
  warmup_ = warmup;
  horizon_ = duration;
}

void SimulationKernel::run(SimTime duration, SimTime warmup) {
  arm(duration, warmup);

  queue_.run_until(duration);

  // Drain: sources observe stopped(), queued work completes unmetered, so
  // whatever was in flight at the horizon is delivered, dropped, or parked.
  begin_drain();
  while (queue_.run_one()) {
  }
}

ServerDevices::ServerDevices(EventQueue& queue, const Calibration& calibration,
                             const std::string& tag)
    : nic(queue, "smartnic" + tag, calibration.queue_capacity_packets),
      cpu(queue, "cpu" + tag, calibration.queue_capacity_packets),
      pcie(queue, "pcie" + tag,
           calibration.queue_capacity_packets * kPcieQueueFactor) {}

}  // namespace pam
