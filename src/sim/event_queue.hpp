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
//
// Pending events live in three kinds of store:
//   - a binary heap, for anything scheduled at an arbitrary time;
//   - delay lines: one FIFO per distinct fixed delay d, fed by
//     schedule_delayed(d, rec).  Each entry is {now + d, next seq}; since
//     the clock never goes back and the sequence only grows, a line is
//     already sorted by (time, sequence) and needs no heap;
//   - the arrival line: one FIFO fed by schedule_arrival(at, rec), whose
//     callers promise that `at` never goes back.  The datacenter kernel
//     delivers each epoch's cross-rack frames on it, merged by arrival
//     time at the barrier (sim/shard_fabric.hpp).
// run_one pops the earliest of the heap top and the line fronts under the
// same (time, sequence) comparison, so the execution order is exactly the
// one a heap alone would give.  The datapath's pure pipeline delays use
// the delay lines — ChainSimulator's per-NF nf_overhead, the PCIe fixed
// delay and the inter-server hop, and a cross-rack lease's nf_overhead —
// which is where most in-flight packets wait.  A simulation has a handful
// of such delays, so the lines sit in a small vector scanned linearly.
// A queue whose lines and arrival line are empty looks at the heap alone.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/ring_buffer.hpp"
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
  /// per-packet datapath, cross-rack hops included, schedules EventRecords
  /// instead; tests/test_steady_state_allocs.cpp checks that it allocates
  /// nothing per packet.
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && line_events_ == 0;
  }
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + line_events_;
  }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Timestamp of the earliest pending event.  Only meaningful when
  /// !empty(); the epoch loop uses it to fast-forward idle shards past
  /// empty barrier quanta without walking them one epoch at a time.
  [[nodiscard]] SimTime next_at() const noexcept { return earliest().ev->at; }

  /// Schedules `rec` at absolute time `at` (>= now, clamped otherwise).
  void schedule_at(SimTime at, const EventRecord& rec);
  void schedule_after(SimTime delay, const EventRecord& rec) {
    schedule_at(now_ + delay, rec);
  }
  /// Schedules `rec` after the fixed `delay` (>= 0) on that delay's line:
  /// the same (time, sequence) slot as schedule_after, without a heap
  /// push.  Meant for delays every packet pays unchanged.
  void schedule_delayed(SimTime delay, const EventRecord& rec);
  /// Schedules `rec` at `at` on the arrival line: the same (time,
  /// sequence) slot as schedule_at, without a heap push.  `at` must be
  /// >= now and >= every earlier arrival's time.
  void schedule_arrival(SimTime at, const EventRecord& rec);

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
    std::uint64_t seq = 0;
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

  /// Pending events at now + `delay`, in (time, sequence) order.
  struct DelayLine {
    SimTime delay;
    FifoRing<Event> events;
  };
  /// The earliest pending event and where it waits: `line` indexes lines_,
  /// or is kHeap for the heap top or kArrival for the arrival line's
  /// front.  `ev` is null when nothing is pending.
  struct Next {
    const Event* ev = nullptr;
    std::size_t line = 0;
  };
  static constexpr std::size_t kHeap = ~std::size_t{0};
  static constexpr std::size_t kArrival = kHeap - 1;

  [[nodiscard]] Next earliest() const noexcept;
  /// Pops `next` from its store, advances the clock to it and runs it.
  void run(Next next);

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::vector<DelayLine> lines_;
  FifoRing<Event> arrivals_;  ///< the arrival line, in (time, sequence) order
  std::size_t line_events_ = 0;  ///< events on the delay and arrival lines
  std::vector<Action> actions_;            ///< slab of parked actions
  std::vector<std::uint32_t> free_slots_;  ///< reusable slab slots
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace pam
