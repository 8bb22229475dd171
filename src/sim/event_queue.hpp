// Deterministic discrete-event scheduler.
//
// Events at equal timestamps execute in scheduling order (a monotone
// sequence number breaks ties), which makes every simulation bit-for-bit
// reproducible for a given seed — a property the tests rely on.
//
// Two kinds of event share the one (time, sequence) order:
//   - typed records (EventRecord): a sink plus a plain payload, trivially
//     copyable, so scheduling one never allocates.  Every per-packet hop
//     of the datapath is one of these;
//   - erased actions (EventQueue::Action): any callable, parked in a slab
//     with a free list.  Control-plane, periodic and test code uses them.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/units.hpp"

namespace pam {

class EventSink;
class Packet;

/// One typed event as its sink sees it.  `kind` selects the sink's
/// handler; what the other fields mean is the sink's business (`node` is
/// usually a chain position, `a`/`b`/`c` hold times in ns, indices or a
/// device pointer).  A record with no sink stands for an erased Action
/// parked in slot `a` of the queue's slab.
struct EventRecord {
  EventSink* sink = nullptr;
  Packet* pkt = nullptr;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t kind = 0;
  std::uint32_t node = 0;
};
static_assert(std::is_trivially_copyable_v<EventRecord>);

/// Handles typed records, typically with a switch on `kind`.  Records
/// hold a raw pointer to their sink, so a sink must outlive every record
/// naming it and must not move while any is pending.  Nothing is ever
/// deleted through this interface.
class EventSink {
 public:
  virtual void on_event(const EventRecord& ev) = 0;

 protected:
  ~EventSink() = default;
};

class EventQueue {
 public:
  /// Erased callable for control-plane, periodic and test events.  The
  /// per-packet datapath schedules EventRecords instead, so lint rule P003
  /// (no std::function on the packet path) can exempt src/sim — and
  /// .clang-tidy's AllowedTypes mirrors it.  Per-packet code in
  /// packet/nf/device must still take concrete callables or interfaces,
  /// never std::function.
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Timestamp of the earliest pending event.  Only meaningful when
  /// !empty(); the epoch loop uses it to fast-forward idle shards past
  /// empty barrier quanta without walking them one epoch at a time.
  [[nodiscard]] SimTime next_at() const noexcept { return heap_.top().at; }

  /// Schedules `rec` at absolute time `at` (>= now, clamped otherwise).
  void schedule_at(SimTime at, const EventRecord& rec);
  void schedule_after(SimTime delay, const EventRecord& rec) {
    schedule_at(now_ + delay, rec);
  }

  /// Schedules the erased `action` at `at` / after `delay`.
  void schedule_at(SimTime at, Action action) {
    schedule_at(at, park(std::move(action)));
  }
  void schedule_after(SimTime delay, Action action) {
    schedule_at(now_ + delay, park(std::move(action)));
  }

  /// Parks `action` in the slab; the returned record runs it once when
  /// dispatched (FcfsServer stores it as an erased job's completion).
  [[nodiscard]] EventRecord park(Action action);

  /// Runs `rec` now: calls its sink, or runs and frees its parked action.
  void dispatch(const EventRecord& rec);

  /// Runs the earliest event.  Returns false when the queue is empty.
  bool run_one();

  /// Runs events until simulated time exceeds `until` or the queue drains.
  /// The clock ends at exactly `until`.
  void run_until(SimTime until);

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    EventRecord rec;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::vector<Action> actions_;            ///< slab of parked actions
  std::vector<std::uint32_t> free_slots_;  ///< reusable slab slots
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace pam
