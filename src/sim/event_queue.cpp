#include "sim/event_queue.hpp"

#include <utility>

namespace pam {

void EventQueue::schedule_at(SimTime at, const EventRecord& rec) {
  if (at < now_) {
    at = now_;  // clamp: scheduling in the past means "immediately"
  }
  heap_.push(Event{at, next_seq_++, rec});
}

EventRecord EventQueue::park(Action action) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  EventRecord rec;
  rec.a = slot;
  return rec;
}

void EventQueue::dispatch(const EventRecord& rec) {
  if (rec.sink != nullptr) {
    rec.sink->on_event(rec);
    return;
  }
  // Free the slot before running: the action may park more work, and the
  // slab may reallocate under it.
  const auto slot = static_cast<std::uint32_t>(rec.a);
  Action action = std::exchange(actions_[slot], nullptr);
  free_slots_.push_back(slot);
  action();
}

bool EventQueue::run_one() {
  if (heap_.empty()) {
    return false;
  }
  const Event ev = heap_.top();
  heap_.pop();
  now_ = ev.at;
  ++executed_;
  dispatch(ev.rec);
  return true;
}

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.top().at <= until) {
    run_one();
  }
  if (now_ < until) {
    now_ = until;
  }
}

}  // namespace pam
