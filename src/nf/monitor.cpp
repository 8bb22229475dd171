#include "nf/monitor.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pam {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  assert(capacity > 0);
}

void SpaceSaving::add(const FiveTuple& key, std::uint64_t weight) {
  if (const auto it = slot_of_.find(key); it != slot_of_.end()) {
    slots_[it->second].count += weight;
    sift_down(heap_pos_[it->second]);
    return;
  }
  if (slots_.size() < capacity_) {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Entry{key, weight, 0});
    heap_.push_back(slot);
    heap_pos_.push_back(slot);
    slot_of_.emplace(key, slot);
    sift_up(heap_.size() - 1);
    return;
  }
  // Evict the current minimum (the root) and inherit its count as error
  // bound.  Re-key the victim's map node instead of erase + emplace: a full
  // sketch then counts without allocating.
  const std::uint32_t slot = heap_[0];
  Entry& victim = slots_[slot];
  const std::uint64_t min_count = victim.count;
  auto node = slot_of_.extract(victim.key);
  node.key() = key;
  slot_of_.insert(std::move(node));
  victim = Entry{key, min_count + weight, min_count};
  sift_down(0);
}

void SpaceSaving::restore(std::vector<Entry> entries) {
  if (entries.size() > capacity_) {
    entries.resize(capacity_);
  }
  slots_ = std::move(entries);
  heap_.resize(slots_.size());
  heap_pos_.resize(slots_.size());
  slot_of_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    place(slot, slot);
    slot_of_.emplace(slots_[slot].key, slot);
  }
  for (std::size_t pos = heap_.size() / 2; pos-- > 0;) {
    sift_down(pos);
  }
}

bool SpaceSaving::before(std::uint32_t a, std::uint32_t b) const noexcept {
  const Entry& x = slots_[a];
  const Entry& y = slots_[b];
  return x.count != y.count ? x.count < y.count : x.key < y.key;
}

void SpaceSaving::place(std::size_t pos, std::uint32_t slot) noexcept {
  heap_[pos] = slot;
  heap_pos_[slot] = static_cast<std::uint32_t>(pos);
}

void SpaceSaving::sift_up(std::size_t pos) noexcept {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(slot, heap_[parent])) {
      break;
    }
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, slot);
}

void SpaceSaving::sift_down(std::size_t pos) noexcept {
  const std::uint32_t slot = heap_[pos];
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!before(heap_[child], slot)) {
      break;
    }
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, slot);
}

std::vector<SpaceSaving::Entry> SpaceSaving::top(std::size_t k) const {
  std::vector<Entry> out = slots_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  });
  if (out.size() > k) {
    out.resize(k);
  }
  return out;
}

Monitor::Monitor(std::string name, std::size_t heavy_hitter_slots)
    : NetworkFunction(std::move(name)), sketch_(heavy_hitter_slots) {}

const FlowStats* Monitor::flow(const FiveTuple& key) const noexcept {
  const auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : &it->second;
}

Verdict Monitor::process(Packet& pkt, SimTime now) {
  const auto tuple = pkt.five_tuple();
  if (!tuple) {
    return Verdict::kForward;  // monitors are passive; never drop
  }
  auto& stats = flows_[*tuple];
  if (stats.packets == 0) {
    stats.first_seen = now;
  }
  ++stats.packets;
  stats.bytes += pkt.size();
  stats.last_seen = now;
  total_bytes_ += pkt.size();
  sketch_.add(*tuple, pkt.size());
  return Verdict::kForward;
}

NfState Monitor::export_state() const {
  StateWriter w;
  w.u64(total_bytes_);
  // Serialise flows in key order: the blob must be byte-identical for
  // identical flow tables regardless of hash-table layout (the state blob
  // feeds transfer-size accounting and any future digest over NF state).
  std::vector<const FiveTuple*> keys;
  keys.reserve(flows_.size());
  for (const auto& [key, stats] : flows_) {  // pam-lint: allow(D003) key collection; sorted before serialisation below
    keys.push_back(&key);
  }
  std::sort(keys.begin(), keys.end(),
            [](const FiveTuple* a, const FiveTuple* b) { return *a < *b; });
  w.u32(static_cast<std::uint32_t>(flows_.size()));
  for (const FiveTuple* key_ptr : keys) {
    const FiveTuple& key = *key_ptr;
    const FlowStats& stats = flows_.at(key);
    w.u32(key.src_ip);
    w.u32(key.dst_ip);
    w.u16(key.src_port);
    w.u16(key.dst_port);
    w.u8(static_cast<std::uint8_t>(key.proto));
    w.u64(stats.packets);
    w.u64(stats.bytes);
    w.u64(static_cast<std::uint64_t>(stats.first_seen.ns()));
    w.u64(static_cast<std::uint64_t>(stats.last_seen.ns()));
  }
  // Heavy-hitter sketch is reconstructible but migrated exactly so the
  // restored NF answers top-k queries identically.
  const auto entries = sketch_.top(sketch_.size());
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.u32(e.key.src_ip);
    w.u32(e.key.dst_ip);
    w.u16(e.key.src_port);
    w.u16(e.key.dst_port);
    w.u8(static_cast<std::uint8_t>(e.key.proto));
    w.u64(e.count);
    w.u64(e.max_error);
  }
  return NfState{name(), std::move(w).take()};
}

void Monitor::import_state(const NfState& state) {
  StateReader r{state.blob};
  total_bytes_ = r.u64();
  const auto n_flows = r.u32();
  flows_.clear();
  flows_.reserve(n_flows);
  for (std::uint32_t i = 0; i < n_flows; ++i) {
    FiveTuple key;
    key.src_ip = r.u32();
    key.dst_ip = r.u32();
    key.src_port = r.u16();
    key.dst_port = r.u16();
    key.proto = static_cast<IpProto>(r.u8());
    FlowStats stats;
    stats.packets = r.u64();
    stats.bytes = r.u64();
    stats.first_seen = SimTime::nanoseconds(static_cast<std::int64_t>(r.u64()));
    stats.last_seen = SimTime::nanoseconds(static_cast<std::int64_t>(r.u64()));
    flows_.emplace(key, stats);
  }
  const auto n_entries = r.u32();
  std::vector<SpaceSaving::Entry> entries(n_entries);
  for (auto& e : entries) {
    e.key.src_ip = r.u32();
    e.key.dst_ip = r.u32();
    e.key.src_port = r.u16();
    e.key.dst_port = r.u16();
    e.key.proto = static_cast<IpProto>(r.u8());
    e.count = r.u64();
    e.max_error = r.u64();
  }
  sketch_.restore(std::move(entries));
}

}  // namespace pam
