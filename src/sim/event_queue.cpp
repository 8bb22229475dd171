#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace pam {

void EventQueue::schedule_at(SimTime at, const EventRecord& rec) {
  if (at < now_) {
    at = now_;  // clamp: scheduling in the past means "immediately"
  }
  heap_.push(Event{at, next_seq_++, rec});
}

void EventQueue::schedule_delayed(SimTime delay, const EventRecord& rec) {
  assert(delay >= SimTime::zero());
  DelayLine* line = nullptr;
  for (auto& candidate : lines_) {
    if (candidate.delay == delay) {
      line = &candidate;
      break;
    }
  }
  if (line == nullptr) {
    line = &lines_.emplace_back(DelayLine{delay, {}});
  }
  line->events.push_back(Event{now_ + delay, next_seq_++, rec});
  ++line_events_;
}

void EventQueue::schedule_arrival(SimTime at, const EventRecord& rec) {
  assert(at >= now_);
  assert(arrivals_.empty() || at >= arrivals_[arrivals_.size() - 1].at);
  arrivals_.push_back(Event{at, next_seq_++, rec});
  ++line_events_;
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

EventQueue::Next EventQueue::earliest() const noexcept {
  Next next;
  if (!heap_.empty()) {
    next = Next{&heap_.top(), kHeap};
  }
  if (line_events_ == 0) {
    return next;
  }
  const Later later;
  if (!arrivals_.empty() && (next.ev == nullptr || later(*next.ev, arrivals_.front()))) {
    next = Next{&arrivals_.front(), kArrival};
  }
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const FifoRing<Event>& events = lines_[i].events;
    if (!events.empty() && (next.ev == nullptr || later(*next.ev, events.front()))) {
      next = Next{&events.front(), i};
    }
  }
  return next;
}

void EventQueue::run(Next next) {
  const Event ev = *next.ev;
  if (next.line == kHeap) {
    heap_.pop();
  } else {
    if (next.line == kArrival) {
      arrivals_.pop_front();
    } else {
      lines_[next.line].events.pop_front();
    }
    --line_events_;
  }
  now_ = ev.at;
  ++executed_;
  dispatch(ev.rec);
}

bool EventQueue::run_one() {
  const Next next = earliest();
  if (next.ev == nullptr) {
    return false;
  }
  run(next);
  return true;
}

void EventQueue::run_until(SimTime until) {
  for (Next next = earliest(); next.ev != nullptr && next.ev->at <= until;
       next = earliest()) {
    run(next);
  }
  if (now_ < until) {
    now_ = until;
  }
}

}  // namespace pam
