#include "experiment/scenario_runner.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "chain/chain_spec.hpp"
#include "chain/deployment.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "control/fleet_controller.hpp"
#include "control/orchestrator.hpp"
#include "control/policy_registry.hpp"
#include "control/scale_out.hpp"
#include "core/multi_chain_pam.hpp"
#include "device/server.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/cluster_simulator.hpp"
#include "sim/datacenter_simulator.hpp"

namespace pam {

namespace {

/// Every policy the runner instantiates comes from the registry — specs are
/// validated at parse time, so a failure here means the registry changed
/// under us (e.g. a test unregistered a policy); surface it, never fall
/// back.
Result<std::unique_ptr<MigrationPolicy>> make_policy(const PolicyConfig& config) {
  return PolicyRegistry::instance().create(config);
}

LatencySummary summarize(const LatencyRecorder& rec) {
  LatencySummary out;
  out.samples = rec.count();
  if (out.samples == 0) {
    return out;
  }
  out.mean_us = rec.mean().us();
  out.p50_us = rec.quantile(0.50).us();
  out.p90_us = rec.quantile(0.90).us();
  out.p99_us = rec.quantile(0.99).us();
  out.max_us = rec.max().us();
  return out;
}

MeasuredRun to_measured(const SimReport& report, std::size_t size_bytes) {
  MeasuredRun out;
  out.size_bytes = size_bytes;
  out.offered_gbps = report.offered_rate.value();
  out.goodput_gbps = report.egress_goodput.value();
  out.latency = summarize(report.latency);
  out.injected = report.injected;
  out.delivered = report.delivered;
  out.dropped_queue_nic = report.dropped_queue_nic;
  out.dropped_queue_cpu = report.dropped_queue_cpu;
  out.dropped_queue_pcie = report.dropped_queue_pcie;
  out.dropped_by_nf = report.dropped_by_nf;
  out.in_flight_at_end = report.in_flight_at_end;
  out.mean_crossings_per_packet = report.mean_crossings_per_packet;
  out.smartnic_utilization = report.smartnic_utilization;
  out.cpu_utilization = report.cpu_utilization;
  out.pcie_utilization = report.pcie_utilization;
  return out;
}

/// Size points to simulate: the paper sweep runs once per size, everything
/// else is a single run (size 0 == mixed distribution).
std::vector<std::size_t> size_points(const SizeSpec& sizes) {
  switch (sizes.kind) {
    case SizeSpec::Kind::kPaperSweep:
      return paper_size_sweep();
    case SizeSpec::Kind::kFixed:
      return {sizes.fixed};
    case SizeSpec::Kind::kImix:
    case SizeSpec::Kind::kUniform:
      return {0};
  }
  return {0};
}

PacketSizeDistribution dist_for(const SizeSpec& sizes, std::size_t point) {
  switch (sizes.kind) {
    case SizeSpec::Kind::kPaperSweep:
      return PacketSizeDistribution::fixed(point);
    case SizeSpec::Kind::kFixed:
      return PacketSizeDistribution::fixed(sizes.fixed);
    case SizeSpec::Kind::kImix:
      return PacketSizeDistribution::imix();
    case SizeSpec::Kind::kUniform:
      return PacketSizeDistribution::uniform(sizes.lo, sizes.hi);
  }
  return PacketSizeDistribution::fixed(512);
}

RateProfile profile_of(const RateSpec& rate) {
  switch (rate.kind) {
    case RateSpec::Kind::kConstant:
      return RateProfile::constant(Gbps{rate.a});
    case RateSpec::Kind::kStep:
      return RateProfile::step(Gbps{rate.a}, Gbps{rate.b},
                               SimTime::milliseconds(rate.at_ms));
    case RateSpec::Kind::kSinusoid:
      return RateProfile::sinusoid(Gbps{rate.a}, Gbps{rate.b},
                                   SimTime::milliseconds(rate.period_ms));
    case RateSpec::Kind::kFlash:
      // Flash crowd: base, spike to the peak at `at`, back to base after.
      return RateProfile::schedule(
          {{SimTime::zero(), Gbps{rate.a}},
           {SimTime::milliseconds(rate.at_ms), Gbps{rate.b}},
           {SimTime::milliseconds(rate.at_ms + rate.for_ms), Gbps{rate.a}}});
  }
  return RateProfile::constant(Gbps{rate.a});
}

/// One DES execution of `chain` at constant `rate` with the scenario's
/// arrival process and the given size distribution.
MeasuredRun simulate_once(const ScenarioSpec& spec, const ServiceChain& chain,
                          Gbps rate, const PacketSizeDistribution& sizes,
                          std::size_t size_point) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(rate);
  cfg.process = spec.traffic.arrival;
  cfg.sizes = sizes;
  cfg.seed = spec.seed;
  DatacenterSimulator dc{DatacenterSimulator::Options{}};  // one rack, one slot
  dc.add_chain(chain, std::move(cfg), 0);
  dc.run(SimTime::milliseconds(spec.duration_ms),
         SimTime::milliseconds(spec.warmup_ms), /*threads=*/1);
  return to_measured(dc.chain_sim(0).build_report(), size_point);
}

Result<RunResult> run_compare(const ScenarioSpec& spec, const ServiceChain& chain) {
  RunResult result;
  result.spec = spec;

  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const Gbps plan_rate{spec.plan_rate_gbps};

  result.variants.reserve(spec.variants.size());
  for (const auto& variant : spec.variants) {
    VariantResult vr;
    vr.label = variant.label;
    vr.policy = variant.policy.to_string();
    vr.plan_rate_gbps = spec.plan_rate_gbps;
    vr.chain_before = chain.describe();

    auto policy = make_policy(variant.policy);
    if (!policy) {
      return policy.error();
    }
    vr.plan = policy.value()->plan(chain, analyzer, plan_rate);
    const ServiceChain after =
        vr.plan.feasible ? vr.plan.apply_to(chain) : chain;
    vr.chain_after = after.describe();

    const Gbps cap = analyzer.max_sustainable_rate(after);
    Gbps measure_rate = plan_rate;
    switch (variant.measure_rate.kind) {
      case MeasureRate::Kind::kGbps:
        measure_rate = Gbps{variant.measure_rate.value};
        break;
      case MeasureRate::Kind::kPlanRate:
        measure_rate = plan_rate;
        break;
      case MeasureRate::Kind::kCapTimes:
        measure_rate = cap * variant.measure_rate.value;
        break;
    }
    vr.measure_rate_gbps = measure_rate.value();

    const auto util = analyzer.utilization(after, measure_rate);
    vr.analytic.max_rate_gbps = cap.value();
    vr.analytic.smartnic_utilization = util.smartnic;
    vr.analytic.cpu_utilization = util.cpu;
    vr.analytic.pcie_utilization = util.pcie;
    vr.analytic.pcie_crossings = after.pcie_crossings();

    if (spec.measure != MeasureMode::kAnalytic) {
      const auto points = size_points(spec.traffic.sizes);
      vr.runs.reserve(points.size());
      for (const std::size_t point : points) {
        vr.runs.push_back(simulate_once(spec, after, measure_rate,
                                        dist_for(spec.traffic.sizes, point),
                                        point));
      }
    }
    result.variants.push_back(std::move(vr));
  }
  return result;
}

/// Loss ratio of `chain` at `rate`, measured by the DES with the capacity
/// scenario's fixed frame size.
double loss_ratio(const ScenarioSpec& spec, const ServiceChain& chain, Gbps rate) {
  const MeasuredRun run =
      simulate_once(spec, chain, rate,
                    PacketSizeDistribution::fixed(spec.capacity.size_bytes),
                    spec.capacity.size_bytes);
  return run.injected > 0 ? static_cast<double>(run.dropped_total()) /
                                static_cast<double>(run.injected)
                          : 0.0;
}

RunResult run_capacity(const ScenarioSpec& spec) {
  RunResult result;
  result.spec = spec;

  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const CapacityTable table = CapacityTable::paper_defaults();

  for (const NfType type : spec.capacity.nfs) {
    for (const Location loc : spec.capacity.locations) {
      ChainBuilder builder{"isolated"};
      builder.egress(loc == Location::kSmartNic ? Attachment::kWire
                                                : Attachment::kHost);
      builder.add(type, "nf", loc);
      const ServiceChain chain = builder.build();

      const Gbps configured = table.lookup(type).on(loc);
      const Gbps analytic = analyzer.max_sustainable_rate(chain);

      // Binary search for the largest rate below the loss threshold —
      // the paper's "sweep the offered rate with a DPDK sender" method.
      double lo = 0.05;
      double hi = analytic.value() * 1.6;
      for (int iter = 0; iter < spec.capacity.search_iters; ++iter) {
        const double mid = (lo + hi) / 2.0;
        if (loss_ratio(spec, chain, Gbps{mid}) < spec.capacity.loss_threshold) {
          lo = mid;
        } else {
          hi = mid;
        }
      }

      CapacityResult row;
      row.nf = std::string{to_string(type)};
      row.device = std::string{to_string(loc)};
      row.configured_gbps = configured.value();
      row.analytic_gbps = analytic.value();
      row.realized_gbps = lo;
      result.capacities.push_back(std::move(row));
    }
  }
  return result;
}

Result<RunResult> run_deployment(const ScenarioSpec& spec) {
  RunResult result;
  result.spec = spec;

  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};

  Deployment dep;
  for (const auto& decl : spec.chains) {
    auto parsed = parse_chain_spec(decl.spec, decl.name);
    if (!parsed) {
      return Error{format("chain '%s': %s", decl.name.c_str(),
                          parsed.error().what().c_str())};
    }
    dep.add(std::move(parsed).value(), Gbps{decl.offered_gbps});
  }

  DeploymentResult dr;
  const auto before = dep.utilization(analyzer);
  dr.smartnic_before = before.smartnic;
  dr.cpu_before = before.cpu;
  dr.weighted_crossings_before = dep.weighted_crossings();

  const MultiChainPam pam;
  const MigrationPlan plan = pam.plan(dep, analyzer);
  dr.trace = plan.trace;
  dr.feasible = plan.feasible;
  dr.infeasibility_reason = plan.infeasibility_reason;
  dr.total_crossing_delta = plan.total_crossing_delta();

  const Deployment after =
      plan.feasible && !plan.empty() ? plan.apply_to(dep) : dep;
  const auto after_util = after.utilization(analyzer);
  dr.smartnic_after = after_util.smartnic;
  dr.cpu_after = after_util.cpu;
  dr.weighted_crossings_after = after.weighted_crossings();

  const ScaleOutPlanner planner{spec.deployment.scale_out_headroom};
  dr.chains.reserve(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    const DeployedChain& deployed = after.at(i);
    DeploymentChainResult cr;
    cr.name = deployed.chain.name();
    cr.chain_before = dep.at(i).chain.describe();
    cr.chain_after = deployed.chain.describe();
    cr.offered_gbps = deployed.offered.value();
    cr.burst_gbps = deployed.offered.value() * spec.deployment.burst_multiplier;
    const ScaleOutDecision decision =
        planner.plan(deployed.chain, analyzer, Gbps{cr.burst_gbps});
    cr.replicas = decision.replicas;
    cr.scale_out_rationale = decision.rationale;
    dr.chains.push_back(std::move(cr));
  }

  result.deployment = std::move(dr);
  return result;
}

/// A fleet scenario wired for its run: the racks, one fleet controller per
/// rack, and the orchestrator leasing chains across racks.  Heap-held by
/// build_fleet so the hooks the wiring installs keep pointing at it.
struct Fleet {
  explicit Fleet(const DatacenterSimulator::Options& options) : dc{options} {}

  DatacenterSimulator dc;
  std::vector<std::string> before;  ///< chain descriptions before the run
  std::vector<std::unique_ptr<FleetController>> controllers;  ///< per rack
  std::optional<DatacenterOrchestrator> orchestrator;
};

/// Schedules the failure and hostile kinds' perturbations.  Each is a
/// rack-local event on the rack it touches, so no other rack observes it
/// mid-epoch.
void schedule_perturbations(const ScenarioSpec& spec, Fleet& fleet) {
  DatacenterSimulator& dc = fleet.dc;
  // Failure kind: each event kills a slot (placement-level: bound work keeps
  // draining through the ToR) and lets the rack's fleet controller evacuate
  // the resident NFs loss-free; optional recovery re-admits the slot.
  for (const FailureEvent& ev : spec.failures) {
    const std::size_t r = dc.rack_of(ev.server);
    const std::size_t slot = dc.slot_of(ev.server);
    ClusterSimulator* rack = &dc.rack(r);
    // validate() requires rebalance = on for the failure kind, so every
    // rack has a controller.
    FleetController* controller = fleet.controllers.at(r).get();
    dc.schedule_on_rack(r, SimTime::milliseconds(ev.at_ms),
                        [rack, controller, slot] {
                          rack->fail_server(slot);
                          controller->on_server_failed(slot);
                        });
    if (ev.recover_ms >= 0.0) {
      dc.schedule_on_rack(r, SimTime::milliseconds(ev.recover_ms),
                          [rack, slot] { rack->recover_server(slot); });
    }
  }

  // Hostile kind: replay the link trace — fabric delay steps hit every
  // rack's intra-rack fabric; capacity fades (degraded devices serve
  // slower, so live load climbs) hit the owning rack only.
  for (const LinkTraceSpec::FabricPoint& point : spec.link.fabric) {
    dc.schedule_fabric_latency(SimTime::milliseconds(point.at_ms),
                               SimTime::microseconds(point.delay_us));
  }
  for (const LinkTraceSpec::SlotFade& fade : spec.link.fades) {
    const std::size_t r = dc.rack_of(fade.server);
    const std::size_t slot = dc.slot_of(fade.server);
    ClusterSimulator* rack = &dc.rack(r);
    dc.schedule_on_rack(r, SimTime::milliseconds(fade.at_ms),
                        [rack, slot, speed = fade.speed] {
                          rack->set_slot_speed(slot, speed);
                        });
  }
}

/// Builds the fleet of a cluster/churn/failure/hostile scenario (or of a
/// timeline, as one slot) for any shard count: [cluster] shards racks of
/// servers/shards slots, per-rack FleetControllers, and the
/// DatacenterOrchestrator above them when there is more than one rack (a
/// lease must cross racks).  shards = 1 is one rack whose epochs merely
/// slice a single kernel's run.
Result<std::unique_ptr<Fleet>> build_fleet(const ScenarioSpec& spec) {
  const ClusterSpec& cs = spec.cluster;
  DatacenterSimulator::Options options;
  options.shards = cs.shards;
  options.servers_total = cs.servers;
  options.intra_rack_latency = SimTime::microseconds(cs.inter_server_us);
  options.cross_rack_latency = SimTime::microseconds(cs.cross_rack_us);
  auto fleet = std::make_unique<Fleet>(options);
  DatacenterSimulator& dc = fleet->dc;

  fleet->before.reserve(spec.chains.size());
  for (std::size_t i = 0; i < spec.chains.size(); ++i) {
    const ChainDecl& decl = spec.chains[i];
    auto parsed = parse_chain_spec(decl.spec, decl.name);
    if (!parsed) {
      return Error{format("chain '%s': %s", decl.name.c_str(),
                          parsed.error().what().c_str())};
    }
    const std::size_t home = decl.server >= 0
                                 ? static_cast<std::size_t>(decl.server)
                                 : i % cs.servers;
    TrafficSourceConfig cfg;
    cfg.rate = decl.has_rate ? profile_of(decl.rate)
                             : RateProfile::constant(Gbps{decl.offered_gbps});
    cfg.process = spec.traffic.arrival;
    cfg.sizes =
        dist_for(spec.traffic.sizes, size_points(spec.traffic.sizes).front());
    // One seed lineage: stream i derives from the scenario seed alone
    // through a splitmix64 mix — which rack (or thread) runs the chain
    // never enters the stream, and neither do clocks or random_device.  A
    // timeline's one chain keeps the scenario seed itself: its stream is
    // older than the fleet path, and its digest is pinned.
    cfg.seed = spec.kind == ScenarioKind::kTimeline ? spec.seed
                                                    : Rng::derive(spec.seed, i);
    fleet->before.push_back(parsed.value().describe());
    dc.add_chain(std::move(parsed).value(), std::move(cfg), home);
    if (decl.arrive_ms > 0.0 || decl.depart_ms >= 0.0) {
      dc.chain_sim(i).set_active_window(
          SimTime::milliseconds(decl.arrive_ms),
          decl.depart_ms >= 0.0 ? SimTime::milliseconds(decl.depart_ms)
                                : SimTime::nanoseconds(-1));
    }
  }

  // The control knobs ([cluster], or a timeline's [controller]), shared by
  // the rack controllers and the orchestrator.
  FleetControllerOptions opts;
  opts.trigger_utilization = cs.trigger_utilization;
  opts.target_max_load = cs.target_max_load;
  opts.period = SimTime::milliseconds(cs.period_ms);
  opts.first_check = SimTime::milliseconds(cs.first_check_ms);
  opts.cooldown = SimTime::milliseconds(cs.cooldown_ms);
  if (cs.rebalance) {
    fleet->controllers.reserve(dc.num_racks());
    for (std::size_t r = 0; r < dc.num_racks(); ++r) {
      auto policy = make_policy(spec.policy);
      if (!policy) {
        return policy.error();
      }
      const auto& controller =
          fleet->controllers.emplace_back(std::make_unique<FleetController>(
              dc.rack(r), std::move(policy).value(), opts));
      // Only a timeline names a calm-direction policy.
      if (spec.scale_in.name != "none") {
        auto scale_in = make_policy(spec.scale_in);
        if (!scale_in) {
          return scale_in.error();
        }
        controller->plane().set_scale_in_policy(std::move(scale_in).value(),
                                                cs.scale_in_below);
      }
    }
    // Heterogeneous fleets: per-chain [chain] policy overrides.
    for (std::size_t i = 0; i < spec.chains.size(); ++i) {
      if (spec.chains[i].policy.empty()) {
        continue;
      }
      auto chain_policy = make_policy(spec.chains[i].policy);
      if (!chain_policy) {
        return chain_policy.error();
      }
      fleet->controllers[dc.home_rack_of(i)]->set_chain_policy(
          dc.local_chain_of(i), std::move(chain_policy).value());
    }
    for (auto& controller : fleet->controllers) {
      controller->arm();
    }
  }

  if (cs.rebalance && cs.orchestrate && dc.num_racks() > 1) {
    std::vector<FleetController*> racks;
    racks.reserve(fleet->controllers.size());
    for (auto& controller : fleet->controllers) {
      racks.push_back(controller.get());
    }
    DatacenterOrchestrator* orchestrator =
        &fleet->orchestrator.emplace(dc, std::move(racks), opts);
    dc.set_barrier_hook([orchestrator](SimTime t, bool draining) {
      orchestrator->on_barrier(t, draining);
    });
    dc.set_drain_gate([orchestrator] { return orchestrator->has_pending(); });
  }

  schedule_perturbations(spec, *fleet);
  return fleet;
}

/// Assembles the run's ClusterResult.  Results carry global server and
/// chain ids and are bit-identical for any thread count.
ClusterResult collect_fleet(const ScenarioSpec& spec, Fleet& fleet,
                            const DatacenterReport& dr) {
  DatacenterSimulator& dc = fleet.dc;
  ClusterResult cr;
  cr.servers = spec.cluster.servers;
  cr.rebalance = spec.cluster.rebalance;
  cr.shards = spec.cluster.shards;

  // Event log: rack controllers speak rack-local chain and slot ids; remap
  // the structured fields to global ids (narrative `detail` strings keep
  // their rack-local view) and merge with the orchestrator's (already
  // global) events in barrier order.  stable_sort keeps the per-source
  // emission order among same-instant events, so the merge is deterministic.
  for (std::size_t r = 0; r < fleet.controllers.size(); ++r) {
    const FleetController& controller = *fleet.controllers[r];
    for (ControlEvent ev : controller.events()) {
      ev.chain = dc.global_chain(r, ev.chain);
      ev.server = dc.global_server(r, ev.server);
      cr.events.push_back(std::move(ev));
    }
    cr.migrations_executed += controller.migrations_executed();
    cr.scale_out_moves += controller.scale_out_moves();
    cr.evacuations += controller.evacuations();
  }
  if (fleet.orchestrator) {
    const auto& events = fleet.orchestrator->events();
    cr.events.insert(cr.events.end(), events.begin(), events.end());
    cr.cross_rack_moves = fleet.orchestrator->cross_rack_moves();
  }
  std::stable_sort(cr.events.begin(), cr.events.end(),
                   [](const ControlEvent& a, const ControlEvent& b) {
                     return a.at < b.at;
                   });

  const std::size_t point = spec.traffic.sizes.kind == SizeSpec::Kind::kFixed
                                ? spec.traffic.sizes.fixed
                                : 0;
  cr.chains.reserve(dr.per_chain.size());
  for (std::size_t i = 0; i < dr.per_chain.size(); ++i) {
    const SimReport& chain_report = dr.per_chain[i];
    ClusterChainResult chain_result;
    chain_result.name = spec.chains[i].name;
    chain_result.home_server = dc.home_server_of(i);
    chain_result.chain_before = fleet.before[i];
    chain_result.chain_after = dc.chain_sim(i).chain().describe();
    chain_result.nodes_off_home = dc.chain_sim(i).nodes_off_home();
    chain_result.nodes_remote = dc.chain_sim(i).nodes_remote();
    chain_result.inter_server_hops = chain_report.inter_server_hops;
    chain_result.metrics = to_measured(chain_report, point);
    cr.chains.push_back(std::move(chain_result));
  }
  cr.per_server = dr.per_server;
  cr.fleet = to_measured(dr.fleet, point);
  cr.inter_server_hops = dr.fleet.inter_server_hops;
  cr.conserved = dr.fleet.conserved();

  cr.cross_rack_hops = dr.cross_rack_hops;
  cr.cross_rack_frames = dr.cross_rack_frames;
  cr.epochs = dr.epochs;
  cr.shard_totals = dr.shards;
  return cr;
}

/// The one fleet run path, for every [cluster] shards value.  `threads`
/// workers advance the racks' epochs (0 = the spec's own count).
Result<RunResult> run_fleet(const ScenarioSpec& spec, std::size_t threads) {
  auto fleet = build_fleet(spec);
  if (!fleet) {
    return fleet.error();
  }
  DatacenterSimulator& dc = fleet.value()->dc;
  dc.run(SimTime::milliseconds(spec.duration_ms),
         SimTime::milliseconds(spec.warmup_ms),
         threads > 0 ? threads : spec.cluster.threads);
  RunResult result;
  result.spec = spec;
  result.cluster = collect_fleet(spec, *fleet.value(), dc.report());
  return result;
}

/// A timeline is a one-slot fleet whose one chain is the [scenario] chain
/// under the [traffic] rate profile; its result is that chain's view of the
/// fleet run.
Result<RunResult> run_timeline(const ScenarioSpec& spec) {
  ScenarioSpec fleet_spec = spec;
  fleet_spec.cluster.servers = 1;
  ChainDecl& decl = fleet_spec.chains.emplace_back();
  decl.name = spec.name;
  decl.spec = spec.chain;
  decl.has_rate = true;
  decl.rate = spec.traffic.rate;
  auto run = run_fleet(fleet_spec, 0);
  if (!run) {
    return run.error();
  }
  ClusterResult& cr = *run.value().cluster;
  ClusterChainResult& chain = cr.chains.front();

  TimelineResult tl;
  tl.chain_before = std::move(chain.chain_before);
  tl.chain_after = std::move(chain.chain_after);
  tl.events = std::move(cr.events);
  tl.migrations_executed = cr.migrations_executed;
  tl.scale_out_requested =
      std::any_of(tl.events.begin(), tl.events.end(), [](const ControlEvent& event) {
        return event.kind == ControlEvent::Kind::kScaleOut;
      });
  tl.metrics = chain.metrics;

  RunResult result;
  result.spec = spec;
  result.timeline = std::move(tl);
  return result;
}

}  // namespace

Result<RunResult> ScenarioRunner::run(const ScenarioSpec& spec,
                                      std::size_t threads_override) const {
  if (threads_override > 0 && spec.cluster.shards <= 1) {
    return Error{
        "--threads only applies to sharded scenarios ([cluster] shards > 1)"};
  }
  switch (spec.kind) {
    case ScenarioKind::kCompare: {
      auto parsed = parse_chain_spec(spec.chain, spec.name);
      if (!parsed) {
        return Error{format("scenario '%s': %s", spec.name.c_str(),
                            parsed.error().what().c_str())};
      }
      return run_compare(spec, parsed.value());
    }
    case ScenarioKind::kTimeline:
      return run_timeline(spec);
    case ScenarioKind::kCapacity:
      return run_capacity(spec);
    case ScenarioKind::kDeployment:
      return run_deployment(spec);
    case ScenarioKind::kCluster:
    case ScenarioKind::kChurn:
    case ScenarioKind::kFailure:
    case ScenarioKind::kHostile:
      return run_fleet(spec, threads_override);
  }
  return Error{"unknown scenario kind"};
}

}  // namespace pam
