#include "control/orchestrator.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "chain/border.hpp"
#include "common/strings.hpp"

namespace pam {

namespace {
/// Why a chain is leased: its home rack has no slot left for the rack
/// tier's own scale-out.
constexpr const char* kSaturated =
    "home rack saturated; intra-rack placement cannot relieve it";
}  // namespace

DatacenterOrchestrator::DatacenterOrchestrator(
    DatacenterSimulator& dc, std::vector<FleetController*> racks,
    const FleetControllerOptions& options)
    : dc_(dc),
      racks_(std::move(racks)),
      options_(options),
      cooling_until_(dc.num_chains(), SimTime::zero()),
      next_check_(options.first_check) {
  assert(racks_.size() == dc.num_racks() && "one controller per rack");
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    // Called from the rack's shard thread: the chain map is fixed before
    // the run and holds() reads only barrier-published state.
    racks_[r]->set_external_hold(
        [this, r](std::size_t local) { return holds(dc_.global_chain(r, local)); });
  }
}

bool DatacenterOrchestrator::holds(std::size_t c) const {
  for (const PendingLease& p : pending_) {
    if (p.chain == c) {
      return true;
    }
  }
  return cooling_until_[c] > last_barrier_;
}

bool DatacenterOrchestrator::rack_pressured(std::size_t r) const {
  bool any_alive = false;
  for (std::size_t slot = 0; slot < dc_.per_rack(); ++slot) {
    const std::size_t gs = dc_.global_server(r, slot);
    if (!dc_.server_alive(gs)) {
      continue;
    }
    any_alive = true;
    const double load = std::max(dc_.server_nic_load(gs), dc_.server_cpu_load(gs));
    if (load < options_.target_max_load) {
      return false;  // this slot can still absorb an intra-rack move
    }
  }
  return any_alive;
}

void DatacenterOrchestrator::on_barrier(SimTime t, bool draining) {
  last_barrier_ = t;
  commit_due(t);
  if (draining) {
    return;  // no new decisions after the horizon; only commits above
  }
  if (t >= next_check_) {
    check_all(t);
    while (next_check_ <= t) {
      next_check_ = next_check_ + options_.period;
    }
  }
}

void DatacenterOrchestrator::emit(SimTime t, ControlEvent event) {
  event.at = t;
  events_.push_back(std::move(event));
}

void DatacenterOrchestrator::check_all(SimTime t) {
  for (std::size_t c = 0; c < dc_.num_chains(); ++c) {
    const std::size_t r = dc_.home_rack_of(c);
    if (holds(c) || racks_[r]->plane().chain_busy_or_cooling(dc_.local_chain_of(c)) ||
        !rack_pressured(r)) {
      continue;  // ours in flight, the rack tier's, or intra-rack can help
    }
    const std::size_t home = dc_.home_server_of(c);
    const Gbps offered = dc_.chain_sim(c).observed_ingress_rate(kRateWindow);
    ControlEvent triggered;
    triggered.kind = ControlEvent::Kind::kTriggered;
    triggered.chain = c;
    triggered.server = home;
    triggered.smartnic_utilization = dc_.server_nic_load(home);
    triggered.cpu_utilization = dc_.server_cpu_load(home);
    triggered.detail = format(
        "rack %zu saturated (every alive slot >= %.2f); chain %zu home slot %zu "
        "at nic %.2f / cpu %.2f, offered %s",
        r, options_.target_max_load, c, home, triggered.smartnic_utilization,
        triggered.cpu_utilization, offered.to_string().c_str());
    emit(t, std::move(triggered));
    lease(c, offered, t);
  }
}

void DatacenterOrchestrator::lease(std::size_t c, Gbps offered, SimTime t) {
  ChainSimulator& sim = dc_.chain_sim(c);
  const std::size_t home_rack = dc_.home_rack_of(c);

  // Candidates: the chain's SmartNIC border NFs (crossing-safe, PAM Step 1)
  // that are not paused by another move and not already leased out.
  const BorderSets borders = find_borders(sim.chain());
  std::vector<std::size_t> candidates;
  for (const std::size_t idx : borders.all()) {
    if (!sim.paused(idx) && !sim.node_remote(idx)) {
      candidates.push_back(idx);
    }
  }
  ControlEvent event;  // infeasible, on the home slot, until a target fits
  event.kind = ControlEvent::Kind::kInfeasible;
  event.chain = c;
  event.server = dc_.home_server_of(c);
  if (candidates.empty()) {
    event.detail = format("cross-rack lease needed but no movable border NF: %s",
                          kSaturated);
    emit(t, std::move(event));
    return;
  }

  // The rack tier's target scan, over every alive slot outside the home
  // rack in global slot order.
  const std::optional<BorderMove> move = pick_border_move(
      sim.chain(), candidates, offered, options_.target_max_load,
      dc_.num_servers(), [&](std::size_t gs) -> std::optional<UtilizationReport> {
        if (dc_.rack_of(gs) == home_rack || !dc_.server_alive(gs)) {
          return std::nullopt;
        }
        return UtilizationReport{dc_.server_nic_load(gs), dc_.server_cpu_load(gs)};
      });
  if (!move) {
    event.detail = format(
        "cross-rack lease needed but no slot outside rack %zu can absorb a "
        "border NF under %.2f load: %s",
        home_rack, options_.target_max_load, kSaturated);
    emit(t, std::move(event));
    return;
  }

  const std::string nf_name = sim.chain().node(move->node).spec.name;
  event.kind = ControlEvent::Kind::kScaleOut;
  event.server = move->slot;
  event.moved_nfs.push_back(nf_name);
  event.smartnic_utilization = move->projected;
  event.detail = format(
      "%s -> cross-rack lease: moving %s to server %zu (rack %zu, projected "
      "load %.2f)",
      kSaturated, nf_name.c_str(), move->slot, dc_.rack_of(move->slot),
      move->projected);
  emit(t, std::move(event));

  // Pause now; the lease commits at the first barrier after the migration
  // cost (at least one epoch), so no shard ever sees a mid-epoch rebind.
  sim.pause_node(move->node);
  pending_.push_back(PendingLease{
      c, move->node, move->slot,
      t + std::max(kRemoteMoveCost, dc_.quantum())});
}

void DatacenterOrchestrator::commit_due(SimTime t) {
  std::vector<PendingLease> remaining;
  remaining.reserve(pending_.size());
  for (const PendingLease& p : pending_) {
    if (t < p.commit_at) {
      remaining.push_back(p);
      continue;
    }
    ChainSimulator& sim = dc_.chain_sim(p.chain);
    const std::string nf_name = sim.chain().node(p.node).spec.name;
    const std::size_t buffered = sim.buffered_at(p.node);
    // A target that died while the lease was in flight refuses the commit:
    // the lease aborts in place, loss-free — buffered packets flush through
    // the home binding.
    const bool committed = dc_.commit_lease(p.chain, p.node, p.target);
    sim.resume_node(p.node);
    cooling_until_[p.chain] = t + options_.cooldown;
    ControlEvent event;
    event.kind = committed ? ControlEvent::Kind::kCrossRackMove
                           : ControlEvent::Kind::kInfeasible;
    event.chain = p.chain;
    event.server = p.target;
    event.moved_nfs.push_back(nf_name);
    if (committed) {
      ++cross_rack_moves_;
      event.detail = format(
          "cross-rack lease committed: %s now on server %zu (rack %zu, %zu "
          "buffered flushed over the fabric)",
          nf_name.c_str(), p.target, dc_.rack_of(p.target), buffered);
    } else {
      event.detail = format(
          "in-flight cross-rack lease of %s aborted: target server %zu died "
          "(%zu buffered flushed in place)",
          nf_name.c_str(), p.target, buffered);
    }
    emit(t, std::move(event));
  }
  pending_ = std::move(remaining);
}

}  // namespace pam
