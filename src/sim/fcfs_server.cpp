#include "sim/fcfs_server.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pam {

FcfsServer::FcfsServer(EventQueue& queue, std::string name, std::size_t queue_capacity)
    : queue_(queue), name_(std::move(name)), capacity_(queue_capacity) {
  assert(queue_capacity > 0);
}

void FcfsServer::set_speed(double speed) noexcept {
  assert(speed > 0.0);
  speed_ = speed;
}

bool FcfsServer::submit(SimTime service, Completion done) {
  if (full()) {
    ++rejected_;
    return false;
  }
  return submit(service, queue_.park(std::move(done)));
}

bool FcfsServer::submit(SimTime service, const EventRecord& done) {
  assert(service >= SimTime::zero());
  if (full()) {
    ++rejected_;
    return false;
  }
  if (speed_ != 1.0) {
    service = service * (1.0 / speed_);
  }
  if (busy_) {
    waiting_.push_back(Job{service, done});
    max_queue_ = std::max(max_queue_, waiting_.size());
    return true;
  }
  start(Job{service, done});
  return true;
}

void FcfsServer::start(const Job& job) {
  busy_ = true;
  busy_time_ += job.service;
  in_service_ = job.done;
  EventRecord completion;
  completion.sink = this;
  queue_.schedule_after(job.service, completion);
}

void FcfsServer::on_event(const EventRecord& /*ev*/) {
  ++completed_;
  // The next waiting job starts (and schedules its own completion) before
  // this job's completion runs.  So work the completion submits lands
  // behind every job already queued, and the next job's completion event
  // takes its sequence number before any event the completion schedules —
  // the order every determinism oracle pins.
  const EventRecord done = in_service_;
  if (waiting_.empty()) {
    busy_ = false;
  } else {
    const Job next = waiting_.front();
    waiting_.pop_front();
    start(next);
  }
  queue_.dispatch(done);
}

}  // namespace pam
