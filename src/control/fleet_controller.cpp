#include "control/fleet_controller.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "chain/border.hpp"
#include "common/strings.hpp"

namespace pam {

std::optional<BorderMove> pick_border_move(
    const ServiceChain& chain, const std::vector<std::size_t>& candidates,
    Gbps offered, double target_max_load, std::size_t slots,
    const std::function<std::optional<UtilizationReport>(std::size_t)>& load) {
  for (const std::size_t node : candidates) {
    const double nf_capacity =
        chain.node(node).spec.capacity.on(Location::kSmartNic).value();
    if (nf_capacity <= 0.0) {
      continue;
    }
    const double contribution = chain.offered_at(node, offered).value() / nf_capacity;
    std::optional<BorderMove> best;
    double best_load = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < slots; ++s) {
      const std::optional<UtilizationReport> util = load(s);
      if (!util) {
        continue;
      }
      const double fit = std::max(util->smartnic + contribution, util->cpu);
      const double current = std::max(util->smartnic, util->cpu);
      if (fit <= target_max_load && current < best_load) {
        best_load = current;
        best = BorderMove{node, s, fit};
      }
    }
    if (best) {
      return best;
    }
  }
  return std::nullopt;
}

FleetController::FleetController(ClusterSimulator& cluster,
                                 std::unique_ptr<MigrationPolicy> policy,
                                 FleetControllerOptions options)
    : cluster_(cluster),
      options_(options),
      analyzer_(cluster.server()),
      plane_(cluster.kernel(), *this, *this, cluster.num_chains(),
             std::move(policy), options) {
  chains_.resize(cluster_.num_chains());
  for (std::size_t c = 0; c < cluster_.num_chains(); ++c) {
    chains_[c].engine = std::make_unique<MigrationEngine>(cluster_.chain_sim(c));
  }
}

std::size_t FleetController::migrations_executed() const noexcept {
  std::size_t n = 0;
  for (const auto& state : chains_) {
    n += state.engine->records().size();
  }
  return n;
}

std::optional<UtilizationReport> FleetController::target_load(std::size_t s,
                                                             std::size_t away) const {
  if (s == away || !cluster_.server_alive(s)) {
    return std::nullopt;
  }
  return UtilizationReport{cluster_.server_nic_load(s), cluster_.server_cpu_load(s)};
}

FleetController::HomeView FleetController::home_view(std::size_t c) const {
  const ChainSimulator& sim = cluster_.chain_sim(c);
  const ServiceChain& full = sim.chain();
  HomeView view;
  view.chain = ServiceChain{full.name()};
  view.chain.set_ingress(full.ingress());
  view.chain.set_egress(full.egress());
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (sim.node_remote(i)) {
      continue;  // leased to another rack: burns no home capacity, and the
                 // orchestrator alone may move it again
    }
    if (sim.node_server(i) == sim.home_server()) {
      view.chain.add_node(full.node(i).spec, full.node(i).location);
      view.index_map.push_back(i);
    }
  }
  return view;
}

ControlPlane::Sample FleetController::sense(std::size_t c) const {
  const ChainSimulator& sim = cluster_.chain_sim(c);
  const std::size_t home = sim.home_server();

  ControlPlane::Sample sample;
  sample.server = home;
  sample.offered = sim.observed_ingress_rate(kRateWindow);

  const ServiceChain resident = home_view(c).chain;
  if (resident.empty()) {
    sample.has_resident = false;
    return sample;
  }
  sample.util = analyzer_.utilization(resident, sample.offered);
  // Second overload signal beyond the chain's own analytic demand: the
  // slot's live device load — co-homed chains can saturate a shared
  // SmartNIC while every individual chain sits below the trigger.  A
  // one-slot rack has no other slot to relieve, so only demand counts.
  sample.slot_hot = cluster_.num_servers() > 1 &&
                    cluster_.server_nic_load(home) >= options_.trigger_utilization;
  return sample;
}

std::string FleetController::describe_overload(
    std::size_t /*c*/, const ControlPlane::Sample& sample) const {
  if (cluster_.num_servers() == 1) {
    return format("overload detected at %s offered: %s",
                  sample.offered.to_string().c_str(), sample.util.describe().c_str());
  }
  return format("overload on server %zu (nic load %.2f) at %s offered: %s",
                sample.server, cluster_.server_nic_load(sample.server),
                sample.offered.to_string().c_str(),
                sample.util.describe().c_str());
}

ControlPlane::Planned FleetController::plan(std::size_t c,
                                            const MigrationPolicy& policy,
                                            Gbps offered) const {
  const HomeView view = home_view(c);

  ControlPlane::Planned out;
  out.plan = policy.plan(view.chain, analyzer_, offered);
  if (out.plan.feasible && !out.plan.empty()) {
    const auto projected =
        analyzer_.utilization(out.plan.apply_to(view.chain), offered);
    out.projected_smartnic = projected.smartnic;
    out.projected_cpu = projected.cpu;
    for (auto& step : out.plan.steps) {
      step.node_index = view.index_map.at(step.node_index);  // reduced -> real
    }
  }
  return out;
}

bool FleetController::in_flight(std::size_t c) const {
  const ChainState& state = chains_.at(c);
  if (state.engine->busy() || state.remote_moves_in_flight > 0) {
    return true;
  }
  return external_hold_ != nullptr && external_hold_(c);
}

void FleetController::execute(std::size_t c, const MigrationPlan& plan,
                              std::function<void()> done) {
  chains_.at(c).engine->execute(plan, std::move(done));
}

void FleetController::scale_out(std::size_t c, const std::string& reason,
                                Gbps offered) {
  if (cluster_.num_servers() == 1) {
    // No slot to push a border NF to: record the request once per chain —
    // provisioning another instance is outside the simulated rack.
    if (!std::exchange(chains_.at(c).scale_out_requested, true)) {
      ControlEvent event;
      event.kind = ControlEvent::Kind::kScaleOut;
      event.chain = c;
      event.detail = "plan infeasible -> scale-out requested: " + reason;
      plane_.emit(std::move(event));
    }
    return;
  }
  ChainSimulator& sim = cluster_.chain_sim(c);
  const std::size_t home = sim.home_server();

  // Candidates are the home chain's SmartNIC border NFs — moving one is
  // crossing-safe on the home server (PAM Step 1), and it re-enters the
  // fleet at the target's SmartNIC side.
  const HomeView view = home_view(c);
  const BorderSets borders = find_borders(view.chain);
  std::vector<std::size_t> candidates;
  for (const std::size_t reduced_idx : borders.all()) {
    const std::size_t real_idx = view.index_map.at(reduced_idx);
    if (!sim.paused(real_idx)) {
      candidates.push_back(real_idx);
    }
  }
  if (candidates.empty()) {
    ControlEvent event;
    event.kind = ControlEvent::Kind::kInfeasible;
    event.chain = c;
    event.server = home;
    event.detail =
        format("scale-out needed but no movable border NF: %s", reason.c_str());
    plane_.emit(std::move(event));
    return;
  }

  // Fit-aware least-loaded target: a slot that cannot absorb the NF would
  // just trade one hot spot for another.
  const std::optional<BorderMove> move = pick_border_move(
      sim.chain(), candidates, offered, options_.target_max_load,
      cluster_.num_servers(), [&](std::size_t s) { return target_load(s, home); });
  if (!move) {
    ControlEvent event;
    event.kind = ControlEvent::Kind::kInfeasible;
    event.chain = c;
    event.server = home;
    event.detail = format("scale-out needed but no slot can absorb a border NF "
                          "under %.2f load: %s",
                          options_.target_max_load, reason.c_str());
    plane_.emit(std::move(event));
    return;
  }
  const auto [idx, target, projected] = *move;

  const std::string nf_name = sim.chain().node(idx).spec.name;
  ControlEvent decided;
  decided.kind = ControlEvent::Kind::kScaleOut;
  decided.chain = c;
  decided.server = target;
  decided.moved_nfs.push_back(nf_name);
  decided.smartnic_utilization = projected;
  decided.detail = format("%s -> scale-out: moving %s to server %zu "
                          "(projected load %.2f)",
                          reason.c_str(), nf_name.c_str(), target, projected);
  plane_.emit(std::move(decided));

  // Loss-free cross-server move: pause, pay the fabric transfer, re-bind,
  // flush.  Mirrors the single-server engine's pause/transfer/resume at
  // rack granularity.
  ++chains_.at(c).remote_moves_in_flight;
  sim.pause_node(idx);
  cluster_.kernel().schedule_after(kRemoteMoveCost, [this, c, idx, target] {
    complete_remote_move(c, idx, target, ControlEvent::Kind::kCrossServerMove);
  });
}

void FleetController::complete_remote_move(std::size_t c, std::size_t node,
                                           std::size_t target,
                                           ControlEvent::Kind kind) {
  ChainSimulator& sim = cluster_.chain_sim(c);
  const std::string nf_name = sim.chain().node(node).spec.name;
  const std::size_t buffered = sim.buffered_at(node);
  --chains_.at(c).remote_moves_in_flight;
  if (!cluster_.server_alive(target)) {
    // The target died while the transfer was in flight: abort in place,
    // loss-free — buffered packets flush through the old binding.
    sim.resume_node(node);
    plane_.complete_action(c);
    ControlEvent aborted;
    aborted.kind = ControlEvent::Kind::kInfeasible;
    aborted.chain = c;
    aborted.server = target;
    aborted.moved_nfs.push_back(nf_name);
    aborted.detail = format(
        "in-flight move of %s aborted: target server %zu died (%zu buffered "
        "flushed in place)",
        nf_name.c_str(), target, buffered);
    plane_.emit(std::move(aborted));
    return;
  }
  // Scale-out deliberately re-enters at the target's SmartNIC; an evacuated
  // NF keeps its device placement.
  const Location loc = kind == ControlEvent::Kind::kEvacuated
                           ? sim.chain().location_of(node)
                           : Location::kSmartNic;
  cluster_.move_node(c, node, target, loc);
  sim.resume_node(node);
  plane_.complete_action(c);
  ControlEvent done;
  done.kind = kind;
  done.chain = c;
  done.server = target;
  done.moved_nfs.push_back(nf_name);
  if (kind == ControlEvent::Kind::kEvacuated) {
    ++evacuations_;
    done.detail =
        format("evacuation complete: %s now on server %zu (%zu buffered)",
               nf_name.c_str(), target, buffered);
  } else {
    ++scale_out_moves_;
    done.detail =
        format("scale-out complete: %s now on server %zu (%zu buffered)",
               nf_name.c_str(), target, buffered);
  }
  plane_.emit(std::move(done));
}

void FleetController::on_server_failed(std::size_t server) {
  for (std::size_t c = 0; c < cluster_.num_chains(); ++c) {
    ChainSimulator& sim = cluster_.chain_sim(c);
    for (std::size_t i = 0; i < sim.chain().size(); ++i) {
      if (sim.node_server(i) != server || sim.paused(i) || sim.node_remote(i)) {
        continue;  // paused: an in-flight move owns this node; remote: the
                   // node lives on another rack, untouched by this failure
      }
      // Least-loaded surviving slot: the shared scan with no load to add and
      // no ceiling — getting off the dead slot outranks the load SLO.
      const std::optional<BorderMove> move = pick_border_move(
          sim.chain(), {i}, Gbps{0.0}, std::numeric_limits<double>::infinity(),
          cluster_.num_servers(), [&](std::size_t s) { return target_load(s, server); });
      if (!move) {
        ControlEvent event;
        event.kind = ControlEvent::Kind::kInfeasible;
        event.chain = c;
        event.server = server;
        event.moved_nfs.push_back(sim.chain().node(i).spec.name);
        event.detail = format(
            "server %zu failed but no surviving slot to evacuate %s to",
            server, sim.chain().node(i).spec.name.c_str());
        plane_.emit(std::move(event));
        continue;
      }
      ++chains_.at(c).remote_moves_in_flight;
      sim.pause_node(i);
      cluster_.kernel().schedule_after(kRemoteMoveCost, [this, c, i, target = move->slot] {
        complete_remote_move(c, i, target, ControlEvent::Kind::kEvacuated);
      });
    }
  }
}

}  // namespace pam
