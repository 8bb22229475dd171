#include "nf/monitor.hpp"

#include <algorithm>
#include <cassert>

namespace pam {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  assert(capacity > 0);
}

void SpaceSaving::add(const FiveTuple& key, std::uint64_t weight) {
  if (const auto it = entries_.find(key); it != entries_.end()) {
    it->second.count += weight;
    return;
  }
  if (entries_.size() < capacity_) {
    entries_.emplace(key, Entry{key, weight, 0});
    return;
  }
  // Evict the current minimum and inherit its count as error bound.  Ties
  // break on the key so the victim never depends on hash-table order.
  // pam-lint: allow(D003) full scan with (count, key) total order — the chosen victim is iteration-order independent
  auto min_it = entries_.begin();
  // pam-lint: allow(D003) same scan, loop header
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.count < min_it->second.count ||
        (it->second.count == min_it->second.count &&
         it->first < min_it->first)) {
      min_it = it;
    }
  }
  const std::uint64_t min_count = min_it->second.count;
  // Re-key the victim's node instead of erase + emplace: a full sketch
  // then counts without allocating.
  auto node = entries_.extract(min_it);
  node.key() = key;
  node.mapped() = Entry{key, min_count + weight, min_count};
  entries_.insert(std::move(node));
}

std::vector<SpaceSaving::Entry> SpaceSaving::top(std::size_t k) const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  // pam-lint: allow(D003) collection pass only; the sort below imposes a (count desc, key asc) total order
  for (const auto& [key, entry] : entries_) {
    out.push_back(entry);
  }
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
  SpaceSaving restored{sketch_.capacity()};
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    FiveTuple key;
    key.src_ip = r.u32();
    key.dst_ip = r.u32();
    key.src_port = r.u16();
    key.dst_port = r.u16();
    key.proto = static_cast<IpProto>(r.u8());
    const auto count = r.u64();
    [[maybe_unused]] const auto max_error = r.u64();
    restored.add(key, count);
  }
  sketch_ = std::move(restored);
}

}  // namespace pam
