#include "nf/load_balancer.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace pam {
namespace {

std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Orders a ring entry before a hash point, for lower_bound over the ring.
constexpr auto point_below = [](const auto& entry, std::uint64_t point) {
  return entry.first < point;
};

}  // namespace

ConsistentHashRing::ConsistentHashRing(std::uint32_t vnodes_per_backend)
    : vnodes_(vnodes_per_backend == 0 ? 1 : vnodes_per_backend) {}

void ConsistentHashRing::add(const Backend& backend) {
  backends_.push_back(backend);
  const auto old_end = static_cast<std::ptrdiff_t>(ring_.size());
  ring_.reserve(ring_.size() + vnodes_);
  for (std::uint32_t v = 0; v < vnodes_; ++v) {
    const std::uint64_t point =
        mix((static_cast<std::uint64_t>(backend.ip) << 20) | v);
    // A point already on the ring passes to this backend, so the last added
    // owner wins and re-adding a backend adds no points.
    const auto it = std::lower_bound(ring_.begin(), ring_.begin() + old_end, point,
                                     point_below);
    if (it != ring_.begin() + old_end && it->first == point) {
      it->second = backend.ip;
    } else {
      ring_.emplace_back(point, backend.ip);
    }
  }
  // One sort per add; a point drawn twice in this add has one owner.
  std::sort(ring_.begin(), ring_.end());
  ring_.erase(std::unique(ring_.begin(), ring_.end(),
                          [](const auto& a, const auto& b) { return a.first == b.first; }),
              ring_.end());
}

bool ConsistentHashRing::remove(std::uint32_t backend_ip) {
  const bool found = std::erase_if(backends_, [backend_ip](const Backend& b) {
                       return b.ip == backend_ip;
                     }) > 0;
  std::erase_if(ring_, [backend_ip](const auto& p) { return p.second == backend_ip; });
  return found;
}

const Backend& ConsistentHashRing::pick(const FiveTuple& key) const {
  if (ring_.empty()) {
    throw std::logic_error("ConsistentHashRing::pick on empty ring");
  }
  const std::uint64_t h = hash_value(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), h, point_below);
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap around
  }
  const std::uint32_t ip = it->second;
  for (const auto& b : backends_) {
    if (b.ip == ip) {
      return b;
    }
  }
  throw std::logic_error("ring references unknown backend");
}

LoadBalancer::LoadBalancer(std::string name, std::uint32_t vnodes_per_backend)
    : NetworkFunction(std::move(name)), ring_(vnodes_per_backend) {}

void LoadBalancer::add_backend(const Backend& backend) { ring_.add(backend); }

bool LoadBalancer::remove_backend(std::uint32_t backend_ip) {
  if (!ring_.remove(backend_ip)) {
    return false;
  }
  // Invalidate affinity entries that point at the removed backend.
  // pam-lint: allow(D003) erase decision is a per-entry predicate — the surviving set is iteration-order independent
  for (auto it = flow_table_.begin(); it != flow_table_.end();) {
    if (it->second == backend_ip) {
      it = flow_table_.erase(it);
    } else {
      ++it;
    }
  }
  return true;
}

Verdict LoadBalancer::process(Packet& pkt, SimTime /*now*/) {
  const auto tuple = pkt.five_tuple();
  if (!tuple) {
    return Verdict::kDrop;
  }
  if (ring_.empty()) {
    return Verdict::kDrop;  // no backend available
  }
  std::uint32_t backend_ip;
  if (const auto it = flow_table_.find(*tuple); it != flow_table_.end()) {
    backend_ip = it->second;
  } else {
    backend_ip = ring_.pick(*tuple).ip;
    flow_table_.emplace(*tuple, backend_ip);
  }
  ++backend_packets_[backend_ip];
  pkt.rewrite_ipv4_addrs(tuple->src_ip, backend_ip);
  return Verdict::kForward;
}

NfState LoadBalancer::export_state() const {
  StateWriter w;
  w.u32(static_cast<std::uint32_t>(ring_.backends().size()));
  for (const auto& b : ring_.backends()) {
    w.u32(b.ip);
    w.u16(b.port);
    w.str(b.label);
  }
  // Serialise affinity entries in key order so the blob is byte-identical
  // for identical tables regardless of hash-table layout.
  std::vector<const FiveTuple*> keys;
  keys.reserve(flow_table_.size());
  for (const auto& [key, ip] : flow_table_) {  // pam-lint: allow(D003) key collection; sorted before serialisation below
    keys.push_back(&key);
  }
  std::sort(keys.begin(), keys.end(),
            [](const FiveTuple* a, const FiveTuple* b) { return *a < *b; });
  w.u32(static_cast<std::uint32_t>(flow_table_.size()));
  for (const FiveTuple* key_ptr : keys) {
    const FiveTuple& key = *key_ptr;
    w.u32(key.src_ip);
    w.u32(key.dst_ip);
    w.u16(key.src_port);
    w.u16(key.dst_port);
    w.u8(static_cast<std::uint8_t>(key.proto));
    w.u32(flow_table_.at(key));
  }
  return NfState{name(), std::move(w).take()};
}

void LoadBalancer::import_state(const NfState& state) {
  StateReader r{state.blob};
  const auto n_backends = r.u32();
  ConsistentHashRing restored_ring{ring_.vnodes_per_backend()};
  for (std::uint32_t i = 0; i < n_backends; ++i) {
    Backend b;
    b.ip = r.u32();
    b.port = r.u16();
    b.label = r.str();
    restored_ring.add(b);
  }
  ring_ = std::move(restored_ring);
  const auto n_flows = r.u32();
  flow_table_.clear();
  flow_table_.reserve(n_flows);
  for (std::uint32_t i = 0; i < n_flows; ++i) {
    FiveTuple key;
    key.src_ip = r.u32();
    key.dst_ip = r.u32();
    key.src_port = r.u16();
    key.dst_port = r.u16();
    key.proto = static_cast<IpProto>(r.u8());
    flow_table_.emplace(key, r.u32());
  }
}

}  // namespace pam
