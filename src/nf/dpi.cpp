#include "nf/dpi.hpp"

#include <cassert>
#include <deque>
#include <stdexcept>
#include <utility>

namespace pam {

std::size_t AhoCorasick::add_pattern(std::string pattern) {
  if (pattern.empty()) {
    throw std::invalid_argument("empty DPI pattern");
  }
  compiled_ = false;
  patterns_.push_back(std::move(pattern));
  return patterns_.size() - 1;
}

void AhoCorasick::compile() {
  if (compiled_) {
    return;
  }
  nodes_.assign(1, Node{});
  // Build the trie.
  for (std::size_t id = 0; id < patterns_.size(); ++id) {
    std::uint32_t cur = 0;
    for (const char ch : patterns_[id]) {
      const auto byte = static_cast<std::uint8_t>(ch);
      const auto it = nodes_[cur].next.find(byte);
      if (it == nodes_[cur].next.end()) {
        nodes_.push_back(Node{});
        const auto fresh = static_cast<std::uint32_t>(nodes_.size() - 1);
        nodes_[cur].next.emplace(byte, fresh);
        cur = fresh;
      } else {
        cur = it->second;
      }
    }
    nodes_[cur].outputs.push_back(id);
  }
  // BFS to fill failure links and merge output sets.  Queue order varies
  // with hash-table layout, but every node's fail link and output set
  // depend only on strictly shallower nodes (final before their children
  // are visited), so the compiled automaton — and with it find_all() — is
  // identical for any visit order.
  std::deque<std::uint32_t> queue;
  // pam-lint: allow(D003) BFS seeding; the compiled automaton is visit-order independent (fail links depend only on shallower, already-final nodes)
  for (const auto& [byte, child] : nodes_[0].next) {
    nodes_[child].fail = 0;
    queue.push_back(child);
  }
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    // pam-lint: allow(D003) BFS expansion; same argument as the seeding loop above
    for (const auto& [byte, child] : nodes_[u].next) {
      std::uint32_t f = nodes_[u].fail;
      while (f != 0 && !nodes_[f].next.contains(byte)) {
        f = nodes_[f].fail;
      }
      const auto it = nodes_[f].next.find(byte);
      nodes_[child].fail = (it != nodes_[f].next.end() && it->second != child)
                               ? it->second
                               : 0;
      const auto& inherited = nodes_[nodes_[child].fail].outputs;
      nodes_[child].outputs.insert(nodes_[child].outputs.end(),
                                   inherited.begin(), inherited.end());
      queue.push_back(child);
    }
  }
  compiled_ = true;
}

std::vector<AhoCorasick::Match> AhoCorasick::find_all(
    std::span<const std::uint8_t> data) const {
  assert(compiled_ && "call compile() before matching");
  std::vector<Match> matches;
  std::uint32_t state = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint8_t byte = data[i];
    while (state != 0 && !nodes_[state].next.contains(byte)) {
      state = nodes_[state].fail;
    }
    if (const auto it = nodes_[state].next.find(byte); it != nodes_[state].next.end()) {
      state = it->second;
    }
    for (const auto id : nodes_[state].outputs) {
      matches.push_back(Match{id, i + 1});
    }
  }
  return matches;
}

bool AhoCorasick::contains_any(std::span<const std::uint8_t> data) const {
  assert(compiled_ && "call compile() before matching");
  std::uint32_t state = 0;
  for (const std::uint8_t byte : data) {
    while (state != 0 && !nodes_[state].next.contains(byte)) {
      state = nodes_[state].fail;
    }
    if (const auto it = nodes_[state].next.find(byte); it != nodes_[state].next.end()) {
      state = it->second;
    }
    if (!nodes_[state].outputs.empty()) {
      return true;
    }
  }
  return false;
}

Dpi::Dpi(std::string name, DpiAction action)
    : NetworkFunction(std::move(name)), action_(action) {}

void Dpi::add_signature(std::string signature) {
  automaton_.add_pattern(std::move(signature));
  per_signature_hits_.push_back(0);
}

std::uint64_t Dpi::hits_for(const std::string& signature) const noexcept {
  for (std::size_t id = 0; id < automaton_.pattern_count(); ++id) {
    if (automaton_.pattern(id) == signature) {
      return per_signature_hits_[id];
    }
  }
  return 0;
}

Verdict Dpi::process(Packet& pkt, SimTime /*now*/) {
  if (automaton_.pattern_count() == 0) {
    return Verdict::kForward;
  }
  // Lazy compile so callers may interleave add_signature and traffic.
  const_cast<AhoCorasick&>(automaton_).compile();
  // The const view: a read-only scan keeps the packet's cached flow key.
  const auto matches = automaton_.find_all(std::as_const(pkt).payload());
  if (matches.empty()) {
    return Verdict::kForward;
  }
  for (const auto& m : matches) {
    ++per_signature_hits_[m.pattern_id];
  }
  total_hits_ += matches.size();
  return action_ == DpiAction::kBlock ? Verdict::kDrop : Verdict::kForward;
}

NfState Dpi::export_state() const {
  StateWriter w;
  w.u8(static_cast<std::uint8_t>(action_));
  w.u64(total_hits_);
  w.u32(static_cast<std::uint32_t>(automaton_.pattern_count()));
  for (std::size_t id = 0; id < automaton_.pattern_count(); ++id) {
    w.str(automaton_.pattern(id));
    w.u64(per_signature_hits_[id]);
  }
  return NfState{name(), std::move(w).take()};
}

void Dpi::import_state(const NfState& state) {
  StateReader r{state.blob};
  action_ = static_cast<DpiAction>(r.u8());
  total_hits_ = r.u64();
  const auto n = r.u32();
  automaton_ = AhoCorasick{};
  per_signature_hits_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    automaton_.add_pattern(r.str());
    per_signature_hits_.push_back(r.u64());
  }
  automaton_.compile();
}

}  // namespace pam
