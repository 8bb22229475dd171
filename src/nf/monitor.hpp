// Flow monitor.
//
// Maintains exact per-flow packet/byte counters plus a Space-Saving heavy-
// hitter summary (Metwally et al.) so operators can query the top-k flows
// without scanning the full table.  This is the paper's "Monitor" vNF — the
// one whose overload triggers migration in the Figure-1 scenario.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nf/network_function.hpp"

namespace pam {

struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  SimTime first_seen = SimTime::zero();
  SimTime last_seen = SimTime::zero();
};

/// Space-Saving top-k sketch: bounded memory, guaranteed to contain every
/// flow whose true count exceeds N/k.
///
/// The entries sit in a slot array with a min-heap of slot ids on
/// (count, key) beside it, so a hit or an eviction costs O(log k) and the
/// root is always the entry the rule evicts: the least count, ties broken
/// on the key, never on hash-table order.
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  void add(const FiveTuple& key, std::uint64_t weight = 1);

  struct Entry {
    FiveTuple key;
    std::uint64_t count = 0;      ///< estimated (over-)count
    std::uint64_t max_error = 0;  ///< count - max_error is a lower bound
  };

  /// Entries sorted by estimated count, descending.
  [[nodiscard]] std::vector<Entry> top(std::size_t k) const;
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Replaces the contents with `entries` (distinct keys, as top() gives
  /// them), each with its count and max_error; beyond capacity() the first
  /// ones are kept.
  void restore(std::vector<Entry> entries);

 private:
  /// The heap order: (count, key) ascending.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const noexcept;
  /// Moves the slot at heap index `pos` towards the root or the leaves
  /// until the heap order holds again.
  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;
  /// Puts `slot` at heap index `pos` and records where it went.
  void place(std::size_t pos, std::uint32_t slot) noexcept;

  std::size_t capacity_;
  std::vector<Entry> slots_;
  std::vector<std::uint32_t> heap_;      ///< slot ids, min-heap on (count, key)
  std::vector<std::uint32_t> heap_pos_;  ///< slot id -> its index in heap_
  std::unordered_map<FiveTuple, std::uint32_t, FiveTupleHash> slot_of_;
};

class Monitor final : public NetworkFunction {
 public:
  explicit Monitor(std::string name, std::size_t heavy_hitter_slots = 64);

  [[nodiscard]] NfType type() const noexcept override { return NfType::kMonitor; }

  [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }
  [[nodiscard]] const FlowStats* flow(const FiveTuple& key) const noexcept;
  [[nodiscard]] std::vector<SpaceSaving::Entry> heavy_hitters(std::size_t k) const {
    return sketch_.top(k);
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  [[nodiscard]] NfState export_state() const override;
  void import_state(const NfState& state) override;

 protected:
  [[nodiscard]] Verdict process(Packet& pkt, SimTime now) override;

 private:
  std::unordered_map<FiveTuple, FlowStats, FiveTupleHash> flows_;
  SpaceSaving sketch_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace pam
