// Monitor NF tests: exact per-flow accounting, Space-Saving heavy-hitter
// guarantees, and byte-exact state migration.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "nf/monitor.hpp"
#include "packet/packet_builder.hpp"

namespace pam {
namespace {

FiveTuple flow(std::uint16_t src_port) {
  return FiveTuple{0x0a000001, 0xc0000202, src_port, 443, IpProto::kUdp};
}

Packet make_packet(const FiveTuple& t, std::size_t size = 128) {
  Packet p;
  PacketBuilder{}.size(size).flow(t).build_into(p);
  return p;
}

TEST(SpaceSaving, ExactBelowCapacity) {
  SpaceSaving sketch{8};
  for (int i = 0; i < 5; ++i) {
    sketch.add(flow(1), 10);
  }
  sketch.add(flow(2), 7);
  const auto top = sketch.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, flow(1));
  EXPECT_EQ(top[0].count, 50u);
  EXPECT_EQ(top[0].max_error, 0u);
  EXPECT_EQ(top[1].count, 7u);
}

TEST(SpaceSaving, EvictionInheritsMinCount) {
  SpaceSaving sketch{2};
  sketch.add(flow(1), 100);
  sketch.add(flow(2), 1);
  sketch.add(flow(3), 1);  // evicts flow(2), inherits count 1
  const auto top = sketch.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, flow(1));
  EXPECT_EQ(top[1].key, flow(3));
  EXPECT_EQ(top[1].count, 2u);       // 1 inherited + 1 own
  EXPECT_EQ(top[1].max_error, 1u);   // lower bound = count - error = 1
}

TEST(SpaceSaving, HeavyHitterAlwaysSurvives) {
  // A flow with > N/k of the total weight must be present in a k-slot
  // sketch — the Space-Saving guarantee.
  SpaceSaving sketch{10};
  Rng rng{3};
  std::uint64_t heavy_weight = 0;
  for (int i = 0; i < 20000; ++i) {
    if (i % 3 == 0) {
      sketch.add(flow(7), 1);  // ~33% of traffic
      ++heavy_weight;
    } else {
      sketch.add(flow(static_cast<std::uint16_t>(1000 + rng.bounded(500))), 1);
    }
  }
  const auto top = sketch.top(10);
  bool found = false;
  for (const auto& entry : top) {
    if (entry.key == flow(7)) {
      found = true;
      EXPECT_GE(entry.count, heavy_weight);  // over-estimate, never under
    }
  }
  EXPECT_TRUE(found);
}

/// The Space-Saving sketch as it was before the heap: a map scanned in
/// full for the (count, key) minimum on every miss at capacity.  Kept as a
/// reference model for the differential test below.
class LinearScanSketch {
 public:
  explicit LinearScanSketch(std::size_t capacity) : capacity_(capacity) {}

  void add(const FiveTuple& key, std::uint64_t weight) {
    if (const auto it = entries_.find(key); it != entries_.end()) {
      it->second.count += weight;
      return;
    }
    if (entries_.size() < capacity_) {
      entries_.emplace(key, SpaceSaving::Entry{key, weight, 0});
      return;
    }
    auto min_it = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.count < min_it->second.count ||
          (it->second.count == min_it->second.count && it->first < min_it->first)) {
        min_it = it;
      }
    }
    const std::uint64_t min_count = min_it->second.count;
    entries_.erase(min_it);
    entries_.emplace(key, SpaceSaving::Entry{key, min_count + weight, min_count});
  }

  [[nodiscard]] std::vector<SpaceSaving::Entry> top() const {
    std::vector<SpaceSaving::Entry> out;
    for (const auto& [key, entry] : entries_) {
      out.push_back(entry);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    return out;
  }

 private:
  std::size_t capacity_;
  std::unordered_map<FiveTuple, SpaceSaving::Entry, FiveTupleHash> entries_;
};

void expect_same_entries(const std::vector<SpaceSaving::Entry>& got,
                         const std::vector<SpaceSaving::Entry>& want, int step) {
  ASSERT_EQ(got.size(), want.size()) << "after " << step << " adds";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "entry " << i << " after " << step;
    EXPECT_EQ(got[i].count, want[i].count) << "entry " << i << " after " << step;
    EXPECT_EQ(got[i].max_error, want[i].max_error) << "entry " << i << " after " << step;
  }
}

TEST(SpaceSaving, HeapMatchesLinearScanReference) {
  // Small weights over a Zipf-skewed key set keep many counts tied, so the
  // key tie-break decides a good share of the evictions.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    SpaceSaving sketch{capacity};
    LinearScanSketch reference{capacity};
    Rng rng{71};
    for (int i = 1; i <= 20000; ++i) {
      const auto key = flow(static_cast<std::uint16_t>(rng.zipf(300, 0.9)));
      const std::uint64_t weight = 1 + rng.bounded(3);
      sketch.add(key, weight);
      reference.add(key, weight);
      if (i % 100 == 0) {
        expect_same_entries(sketch.top(capacity), reference.top(), i);
        if (HasFailure()) {
          return;
        }
      }
    }
  }
}

TEST(SpaceSaving, RestoreKeepsErrorsAndTheEvictionOrder) {
  SpaceSaving sketch{16};
  Rng rng{73};
  for (int i = 0; i < 3000; ++i) {
    sketch.add(flow(static_cast<std::uint16_t>(rng.zipf(100, 1.0))), 1 + rng.bounded(2));
  }
  SpaceSaving restored{16};
  restored.restore(sketch.top(16));
  expect_same_entries(restored.top(16), sketch.top(16), 0);
  // The rebuilt heap picks the same victims from here on.  Checked after
  // every add: a wrong victim can wash out of the counts later.
  for (int i = 1; i <= 2000; ++i) {
    const auto key = flow(static_cast<std::uint16_t>(rng.zipf(100, 1.0)));
    const std::uint64_t weight = 1 + rng.bounded(2);
    sketch.add(key, weight);
    restored.add(key, weight);
    expect_same_entries(restored.top(16), sketch.top(16), i);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(Monitor, CountsPerFlow) {
  Monitor mon{"mon"};
  for (int i = 0; i < 3; ++i) {
    Packet p = make_packet(flow(1), 100);
    (void)mon.handle(p, SimTime::microseconds(i));
  }
  Packet q = make_packet(flow(2), 200);
  (void)mon.handle(q, SimTime::microseconds(10));

  EXPECT_EQ(mon.flow_count(), 2u);
  const FlowStats* s1 = mon.flow(flow(1));
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->packets, 3u);
  EXPECT_EQ(s1->bytes, 300u);
  EXPECT_EQ(s1->first_seen.us(), 0.0);
  EXPECT_EQ(s1->last_seen.us(), 2.0);
  EXPECT_EQ(mon.total_bytes(), 500u);
}

TEST(Monitor, UnknownFlowIsNull) {
  Monitor mon{"mon"};
  EXPECT_EQ(mon.flow(flow(9)), nullptr);
}

TEST(Monitor, NeverDrops) {
  Monitor mon{"mon"};
  Packet p = make_packet(flow(1));
  EXPECT_EQ(mon.handle(p, SimTime::zero()), Verdict::kForward);
  Packet bad{64};  // non-IP
  EXPECT_EQ(mon.handle(bad, SimTime::zero()), Verdict::kForward);
}

TEST(Monitor, HeavyHittersOrdered) {
  Monitor mon{"mon", 16};
  for (int i = 0; i < 9; ++i) {
    Packet p = make_packet(flow(1), 1000);
    (void)mon.handle(p, SimTime::zero());
  }
  for (int i = 0; i < 2; ++i) {
    Packet p = make_packet(flow(2), 1000);
    (void)mon.handle(p, SimTime::zero());
  }
  const auto hh = mon.heavy_hitters(2);
  ASSERT_EQ(hh.size(), 2u);
  EXPECT_EQ(hh[0].key, flow(1));
  EXPECT_GE(hh[0].count, hh[1].count);
}

TEST(Monitor, StateRoundTripExact) {
  Monitor mon{"mon", 8};
  for (std::uint16_t port = 1; port <= 5; ++port) {
    for (int i = 0; i < port; ++i) {
      Packet p = make_packet(flow(port), 100 * port);
      (void)mon.handle(p, SimTime::microseconds(i));
    }
  }
  Monitor restored{"mon2", 8};
  restored.import_state(mon.export_state());

  EXPECT_EQ(restored.flow_count(), mon.flow_count());
  EXPECT_EQ(restored.total_bytes(), mon.total_bytes());
  for (std::uint16_t port = 1; port <= 5; ++port) {
    const FlowStats* original = mon.flow(flow(port));
    const FlowStats* copy = restored.flow(flow(port));
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->packets, original->packets);
    EXPECT_EQ(copy->bytes, original->bytes);
    EXPECT_EQ(copy->first_seen, original->first_seen);
    EXPECT_EQ(copy->last_seen, original->last_seen);
  }
  // Top-k answers must be identical after migration.
  const auto before = mon.heavy_hitters(3);
  const auto after = restored.heavy_hitters(3);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].key, after[i].key);
    EXPECT_EQ(before[i].count, after[i].count);
  }
}

TEST(Monitor, StateRoundTripKeepsSketchErrors) {
  // Enough skewed flows to overflow the 8-slot sketch, so entries carry a
  // max_error; export -> import -> export must reproduce the blob exactly.
  Monitor mon{"mon", 8};
  Rng rng{79};
  for (int i = 0; i < 5000; ++i) {
    Packet p = make_packet(flow(static_cast<std::uint16_t>(rng.zipf(256, 1.1))),
                           64 + rng.bounded(1437));
    (void)mon.handle(p, SimTime::microseconds(i));
  }
  const auto hh = mon.heavy_hitters(8);
  ASSERT_TRUE(std::any_of(hh.begin(), hh.end(),
                          [](const SpaceSaving::Entry& e) { return e.max_error > 0; }));
  const NfState exported = mon.export_state();
  Monitor restored{"mon", 8};
  restored.import_state(exported);
  EXPECT_EQ(restored.export_state().blob, exported.blob);
  expect_same_entries(restored.heavy_hitters(8), hh, 0);
}

TEST(Monitor, StateGrowsWithFlows) {
  Monitor small{"a"};
  Monitor large{"b"};
  for (std::uint16_t port = 0; port < 100; ++port) {
    Packet p = make_packet(flow(port));
    (void)large.handle(p, SimTime::zero());
  }
  EXPECT_GT(large.export_state().size().value(),
            small.export_state().size().value());
}

TEST(Monitor, ImportRejectsTruncatedBlob) {
  Monitor mon{"mon"};
  Packet p = make_packet(flow(1));
  (void)mon.handle(p, SimTime::zero());
  NfState snapshot = mon.export_state();
  snapshot.blob.resize(snapshot.blob.size() - 1);
  Monitor other{"mon2"};
  EXPECT_THROW(other.import_state(snapshot), std::runtime_error);
}

}  // namespace
}  // namespace pam
