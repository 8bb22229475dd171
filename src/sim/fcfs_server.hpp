// Single FCFS server with a drop-tail queue.
//
// Each physical resource in the simulated server — the SmartNIC's NPU
// complex, the CPU complex, the PCIe link — is one FcfsServer.  Jobs carry
// an explicit service time, so one server naturally realises the paper's
// resource model: a device is saturated exactly when the sum of
// (rate_i x service_i) across its resident NFs reaches 1.
//
// A job is {service, completion record}.  The server is itself the sink of
// its completion events: only one job is in service at a time, so the
// event needs no payload.  Waiting jobs sit in a FifoRing that grows on
// demand and never shrinks, so a server at its high-water mark queues
// without allocating.

#pragma once

#include <cstdint>
#include <string>

#include "common/ring_buffer.hpp"
#include "sim/event_queue.hpp"

namespace pam {

class FcfsServer final : public EventSink {
 public:
  using Completion = EventQueue::Action;

  FcfsServer(EventQueue& queue, std::string name, std::size_t queue_capacity);

  // Pending completion events point at this server.
  FcfsServer(const FcfsServer&) = delete;
  FcfsServer& operator=(const FcfsServer&) = delete;

  /// Enqueues a job needing `service` busy time; `done` is dispatched at
  /// completion.  Returns false (and dispatches nothing) when the
  /// drop-tail queue is full — the caller owns whatever the job carried.
  [[nodiscard]] bool submit(SimTime service, const EventRecord& done);
  /// Same, with an erased completion.
  [[nodiscard]] bool submit(SimTime service, Completion done);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t queue_length() const noexcept { return waiting_.size(); }
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  /// Service-rate multiplier for capacity fades (hostile-link scenarios):
  /// every subsequently submitted job's service time is divided by `speed`.
  /// 1.0 restores nominal capacity; values in (0, 1) slow the device down.
  void set_speed(double speed) noexcept;

  [[nodiscard]] std::uint64_t jobs_completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t jobs_rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::size_t max_queue_seen() const noexcept { return max_queue_; }
  [[nodiscard]] SimTime busy_time() const noexcept { return busy_time_; }

  /// Busy fraction over [0, elapsed].
  [[nodiscard]] double utilization(SimTime elapsed) const noexcept {
    return elapsed.ns() > 0
               ? static_cast<double>(busy_time_.ns()) / static_cast<double>(elapsed.ns())
               : 0.0;
  }

 private:
  struct Job {
    SimTime service;
    EventRecord done;
  };

  [[nodiscard]] bool full() const noexcept {
    return busy_ && waiting_.size() >= capacity_;
  }
  void start(const Job& job);
  /// Completion of the job in service.
  void on_event(const EventRecord& ev) override;

  EventQueue& queue_;
  std::string name_;
  std::size_t capacity_;
  FifoRing<Job> waiting_;
  EventRecord in_service_;  ///< completion of the job in service
  bool busy_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::size_t max_queue_ = 0;
  SimTime busy_time_ = SimTime::zero();
  double speed_ = 1.0;
};

}  // namespace pam
