#include "sim/datacenter_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "chain/calibration.hpp"
#include "sim/epoch_executor.hpp"

namespace pam {

namespace {
// Seed lineage base for lease-local pass_ratio streams: every lease derives
// its Rng from this constant and its (chain, node) identity, so which rack
// hosts the lease — and how many threads advance it — never shifts a
// random stream.
constexpr std::uint64_t kLeaseSeedBase = 0x9d47ac3a5e1ea5e5ull;

/// Lease-path events.  Payload: pkt, node = the leased node, b = global
/// chain, and
///   kFabricEgress  (none) — the home chain hands the packet over
///   kVisitArrive   a = host rack
///   kLeaseNfDone   a = host rack, c = submit time in ns
///   kLeaseReturn   a = host rack — the nf_overhead delay elapsed
///   kReturnArrive  a = home rack, c = FabricFrame::Outcome
enum Kind : std::uint32_t {
  kFabricEgress,
  kVisitArrive,
  kLeaseNfDone,
  kLeaseReturn,
  kReturnArrive,
};
}  // namespace

DatacenterSimulator::DatacenterSimulator(const Options& options)
    : options_(options),
      per_rack_(options.servers_total / options.shards),
      fabric_(options.shards) {
  assert(options.shards >= 1);
  assert(options.servers_total % options.shards == 0 &&
         "servers_total must divide evenly into racks");
  assert(options.cross_rack_latency.ns() > 0 &&
         "the epoch quantum (cross-rack latency) must be positive");
  racks_.reserve(options.shards);
  rack_chains_.resize(options.shards);
  for (std::size_t r = 0; r < options.shards; ++r) {
    racks_.push_back(std::make_unique<ClusterSimulator>(
        per_rack_, options.intra_rack_latency));
  }
}

std::size_t DatacenterSimulator::add_chain(ServiceChain chain,
                                          TrafficSourceConfig traffic,
                                          std::size_t home) {
  const std::size_t r = rack_of(home);
  const std::size_t slot = slot_of(home);
  const std::size_t local =
      racks_.at(r)->add_chain(std::move(chain), std::move(traffic), slot);
  const std::size_t global_c = chain_map_.size();
  chain_map_.push_back(ChainRef{r, local});
  chain_home_.push_back(home);
  rack_chains_[r].push_back(global_c);
  racks_[r]->chain_sim(local).set_fabric_egress(this, kFabricEgress, global_c);
  return global_c;
}

void DatacenterSimulator::schedule_on_rack(std::size_t r, SimTime at,
                                           std::function<void()> fn) {
  racks_.at(r)->kernel().schedule_at(at, std::move(fn));
}

void DatacenterSimulator::schedule_fabric_latency(SimTime at, SimTime latency) {
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    ClusterSimulator* rack = racks_[r].get();
    rack->kernel().schedule_at(
        at, [rack, latency] { rack->set_fabric_latency(latency); });
  }
}

DatacenterSimulator::Lease& DatacenterSimulator::find_lease(std::size_t c,
                                                            std::size_t node) const {
  assert(c < lease_index_.size() && node < lease_index_[c].size() &&
         lease_index_[c][node] != nullptr && "remote node without a lease");
  return *lease_index_[c][node];
}

bool DatacenterSimulator::commit_lease(std::size_t c, std::size_t node,
                                       std::size_t target) {
  const std::size_t host_rack = rack_of(target);
  const std::size_t host_slot = slot_of(target);
  assert(host_rack != home_rack_of(c) &&
         "a lease crosses racks; use move_node for intra-rack placement");
  if (!racks_[host_rack]->server_alive(host_slot)) {
    return false;
  }
  ChainSimulator& sim = chain_sim(c);
  assert(!sim.node_remote(node));
  auto lease = std::make_unique<Lease>();
  lease->chain = c;
  lease->node = node;
  lease->host_rack = host_rack;
  lease->host_slot = host_slot;
  lease->spec = sim.chain().node(node).spec;
  lease->nf = sim.take_nf(node);
  lease->rng = Rng{Rng::derive(kLeaseSeedBase, (c << 16) | node)};
  assert(lease->nf != nullptr);
  // Rows are sized on a chain's first lease; only this barrier-time call
  // writes the index.
  lease_index_.resize(num_chains());
  lease_index_[c].resize(sim.chain().size(), nullptr);
  lease_index_[c][node] = lease.get();
  leases_.push_back(std::move(lease));
  sim.set_node_remote(node, true);
  return true;
}

void DatacenterSimulator::send_visit(std::size_t c, std::size_t node, Packet* p) {
  const Lease& lease = find_lease(c, node);
  const std::size_t home = home_rack_of(c);
  FabricFrame frame;
  frame.kind = FabricFrame::Kind::kVisit;
  frame.chain = c;
  frame.node = node;
  frame.sent_at = racks_[home]->kernel().now();
  frame.packet = p;
  fabric_.send(home, lease.host_rack, std::move(frame));
}

void DatacenterSimulator::deliver_frame(std::size_t dst, const FabricFrame& frame) {
  // Lookahead: sent_at lies inside the epoch that just ended, so the
  // arrival is always at or after the barrier the destination sits at,
  // and at or after every arrival an earlier barrier delivered.  Within
  // one barrier the fabric hands a destination its frames by sent_at, so
  // its arrival times never go back: they ride the arrival line.
  EventRecord arrive;
  arrive.sink = this;
  arrive.kind =
      frame.kind == FabricFrame::Kind::kVisit ? kVisitArrive : kReturnArrive;
  arrive.pkt = frame.packet;
  arrive.node = static_cast<std::uint32_t>(frame.node);
  arrive.a = dst;
  arrive.b = frame.chain;
  arrive.c = static_cast<std::uint64_t>(frame.outcome);
  racks_[dst]->kernel().queue().schedule_arrival(
      frame.sent_at + options_.cross_rack_latency, arrive);
}

void DatacenterSimulator::send_return(std::size_t host, std::size_t c,
                                      std::size_t node,
                                      FabricFrame::Outcome outcome, Packet* p) {
  FabricFrame frame;
  frame.kind = FabricFrame::Kind::kReturn;
  frame.outcome = outcome;
  frame.chain = c;
  frame.node = node;
  frame.sent_at = racks_[host]->kernel().now();
  frame.packet = p;
  fabric_.send(host, home_rack_of(c), std::move(frame));
}

void DatacenterSimulator::host_visit(std::size_t host, std::size_t c,
                                     std::size_t node, Packet* p) {
  // Runs on the host shard's thread, mid-epoch.  Everything it touches —
  // the packet, the host rack's devices/kernel, the lease, the host's own
  // mailbox row — is owned by this shard for the epoch.  The packet never
  // enters the host's pool: every outcome, drops included, goes home.
  const Lease& lease = find_lease(c, node);
  assert(lease.host_rack == host);
  ClusterSimulator& rack = *racks_[host];

  // Leased NFs always execute on the host SmartNIC: same occupancy rule as
  // ChainSimulator::process_node, against the host slot's shared NIC.
  FcfsServer& nic = rack.devices(lease.host_slot).nic;
  const SimTime service =
      serialization_delay(p->wire_bytes(),
                          lease.spec.capacity.on(Location::kSmartNic)) *
      lease.spec.load_factor;
  EventRecord done;
  done.sink = this;
  done.kind = kLeaseNfDone;
  done.pkt = p;
  done.node = static_cast<std::uint32_t>(node);
  done.a = host;
  done.b = c;
  done.c = static_cast<std::uint64_t>(rack.kernel().now().ns());
  if (!nic.submit(service, done)) {
    send_return(host, c, node, FabricFrame::Outcome::kDroppedNic, p);
  }
}

void DatacenterSimulator::on_event(const EventRecord& ev) {
  const std::size_t c = ev.b;
  switch (ev.kind) {
    case kFabricEgress:
      send_visit(c, ev.node, ev.pkt);
      return;
    case kVisitArrive:
      host_visit(ev.a, c, ev.node, ev.pkt);
      return;
    case kLeaseNfDone:
      lease_nf_done(ev.a, c, ev.node, ev.pkt,
                    SimTime::nanoseconds(static_cast<std::int64_t>(ev.c)));
      return;
    case kLeaseReturn:
      send_return(ev.a, c, ev.node, FabricFrame::Outcome::kPassed, ev.pkt);
      return;
    case kReturnArrive: {
      const ChainRef& ref = chain_map_[c];
      assert(ref.rack == ev.a);
      racks_[ref.rack]->chain_sim(ref.local).resume_from_remote(
          ev.node, ev.pkt, static_cast<FabricFrame::Outcome>(ev.c));
      return;
    }
    default:
      assert(false && "unknown lease-path event");
  }
}

void DatacenterSimulator::lease_nf_done(std::size_t host, std::size_t c,
                                        std::size_t node, Packet* p,
                                        SimTime submitted_at) {
  Lease& lease = find_lease(c, node);
  SimulationKernel& kernel = racks_[host]->kernel();
  if (kernel.metering()) {
    ++lease.packets;
    lease.residence.record(kernel.now() - submitted_at);
  }
  p->note_hop();
  const Verdict verdict = lease.nf->handle(*p, kernel.now());
  bool nf_drop = verdict == Verdict::kDrop;
  if (!nf_drop && lease.spec.pass_ratio < 1.0 &&
      lease.rng.chance(1.0 - lease.spec.pass_ratio)) {
    nf_drop = true;
  }
  if (nf_drop) {
    send_return(host, c, node, FabricFrame::Outcome::kDroppedNf, p);
    return;
  }
  // NF software overhead, then back over the fabric (parity with the
  // nf_overhead pipeline delay a local visit pays).
  EventRecord back;
  back.sink = this;
  back.kind = kLeaseReturn;
  back.pkt = p;
  back.node = static_cast<std::uint32_t>(node);
  back.a = host;
  back.b = c;
  kernel.queue().schedule_delayed(
      Calibration::defaults().nf_overhead(Location::kSmartNic), back);
}

void DatacenterSimulator::exchange() {
  // The fabric delivers in (dst, sent_at, src, seq) order, which depends
  // on the mailboxes' contents alone, never on which thread filled them.
  fabric_.exchange([this](std::size_t, std::size_t dst, const FabricFrame& frame) {
    deliver_frame(dst, frame);
  });
}

void DatacenterSimulator::run(SimTime duration, SimTime warmup,
                              std::size_t threads) {
  assert(!ran_ && "DatacenterSimulator::run is single-shot");
  ran_ = true;
  for (auto& rack : racks_) {
    rack->kernel().arm(duration, warmup);
    for (std::size_t c = 0; c < rack->num_chains(); ++c) {
      rack->chain_sim(c).start();
    }
  }

  EpochExecutor executor(std::max<std::size_t>(threads, 1), racks_.size());
  const auto advance_all = [&](SimTime until) {
    executor.run_epoch(
        [&](std::size_t s) { racks_[s]->kernel().advance_until(until); });
    ++epochs_;
  };

  const SimTime q = options_.cross_rack_latency;
  SimTime t = SimTime::zero();

  // Main phase: fixed-quantum epochs to the horizon.
  while (t < duration) {
    t = std::min(duration, t + q);
    advance_all(t);
    exchange();
    if (barrier_hook_) {
      barrier_hook_(t, /*draining=*/false);
    }
  }

  // Drain phase: sources stop, queued work completes unmetered.  Epochs
  // keep cycling — fast-forwarding over dead time to the earliest pending
  // event — until every queue and mailbox is dry and no barrier-time
  // action (e.g. a pending cross-rack commit) is outstanding.
  for (auto& rack : racks_) {
    rack->kernel().begin_drain();
  }
  for (;;) {
    bool queues_pending = false;
    SimTime earliest = t;
    bool have_earliest = false;
    for (const auto& rack : racks_) {
      const EventQueue& queue = rack->kernel().queue();
      if (queue.empty()) {
        continue;
      }
      queues_pending = true;
      if (!have_earliest || queue.next_at() < earliest) {
        earliest = queue.next_at();
        have_earliest = true;
      }
    }
    if (!queues_pending && !(drain_gate_ && drain_gate_())) {
      break;
    }
    t = std::max(t + q, earliest);
    advance_all(t);
    exchange();
    if (barrier_hook_) {
      barrier_hook_(t, /*draining=*/true);
    }
  }
}

DatacenterReport DatacenterSimulator::report() const {
  assert(ran_ && "report() reads a finished run");
  const SimTime duration = racks_.front()->kernel().horizon();
  DatacenterReport out;
  out.epochs = epochs_;
  out.cross_rack_frames = fabric_.frames_exchanged();
  SimReport& fleet = out.fleet;
  out.per_server.resize(num_servers());
  out.shards.resize(racks_.size());
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    ShardSummary& shard = out.shards[r];
    shard.shard = r;
    shard.first_server = global_server(r, 0);
    shard.servers = per_rack_;
    shard.events_executed = racks_[r]->kernel().queue().executed();
    shard.frames_out = fabric_.frames_from(r);
    for (std::size_t s = 0; s < per_rack_; ++s) {
      const ServerDevices& devices = racks_[r]->devices(s);
      ServerSummary& sum = out.per_server[global_server(r, s)];
      sum.server_id = global_server(r, s);
      sum.smartnic_utilization = devices.nic.utilization(duration);
      sum.cpu_utilization = devices.cpu.utilization(duration);
      sum.pcie_utilization = devices.pcie.utilization(duration);
      // Fleet utilisation is the hottest slot's (the bottleneck view).
      fleet.smartnic_utilization =
          std::max(fleet.smartnic_utilization, sum.smartnic_utilization);
      fleet.cpu_utilization = std::max(fleet.cpu_utilization, sum.cpu_utilization);
      fleet.pcie_utilization = std::max(fleet.pcie_utilization, sum.pcie_utilization);
    }
  }

  // One pass over the chains in global id order: the per-chain reports,
  // the home slot's and home shard's sums and the fleet total.  The
  // merged latency distribution accumulates in that same order, so it is
  // independent of rack partitioning details like thread assignment.
  double goodput = 0.0;
  double offered = 0.0;
  double crossings = 0.0;  ///< Σ crossings per packet x measured deliveries
  out.per_chain.reserve(chain_map_.size());
  for (std::size_t c = 0; c < chain_map_.size(); ++c) {
    const ChainRef& ref = chain_map_[c];
    const ChainSimulator& sim = racks_[ref.rack]->chain_sim(ref.local);
    SimReport report = sim.build_report();
    const std::uint64_t dropped = report.dropped_total();

    ServerSummary& home = out.per_server[chain_home_[c]];
    ++home.chains_homed;
    home.injected += report.injected;
    home.delivered += report.delivered;
    home.dropped += dropped;

    ShardSummary& shard = out.shards[ref.rack];
    shard.injected += report.injected;
    shard.delivered += report.delivered;
    shard.dropped += dropped;
    shard.in_flight_at_end += report.in_flight_at_end;

    fleet.injected += report.injected;
    fleet.delivered += report.delivered;
    fleet.dropped_queue_nic += report.dropped_queue_nic;
    fleet.dropped_queue_cpu += report.dropped_queue_cpu;
    fleet.dropped_queue_pcie += report.dropped_queue_pcie;
    fleet.dropped_by_nf += report.dropped_by_nf;
    fleet.in_flight_at_end += report.in_flight_at_end;
    fleet.inter_server_hops += report.inter_server_hops;
    fleet.measured_delivered += report.measured_delivered;
    fleet.latency.merge(report.latency);
    goodput += report.egress_goodput.value();
    offered += report.offered_rate.value();
    crossings += report.mean_crossings_per_packet *
                 static_cast<double>(report.measured_delivered);
    out.cross_rack_hops += sim.cross_rack_hops();

    for (std::size_t i = 0; i < sim.chain().size(); ++i) {
      if (!sim.node_remote(i)) {  // a leased node is credited below
        ++out.per_server[global_server(ref.rack, sim.node_server(i))]
              .nodes_hosted;
      }
    }
    out.per_chain.push_back(std::move(report));
  }
  fleet.egress_goodput = Gbps{goodput};
  fleet.offered_rate = Gbps{offered};
  fleet.mean_crossings_per_packet =
      fleet.measured_delivered > 0
          ? crossings / static_cast<double>(fleet.measured_delivered)
          : 0.0;

  // Leased nodes: their visit stats live host-side; patch them into the
  // home chain's per-node view and credit the host slot with the node.
  for (const auto& lease : leases_) {
    SimReport& report = out.per_chain[lease->chain];
    NodeSummary& node = report.per_node.at(lease->node);
    node.location = Location::kSmartNic;
    node.packets = lease->packets;
    if (lease->packets > 0) {
      node.mean_residence = lease->residence.mean();
      node.p99_residence = lease->residence.quantile(0.99);
    }
    ++out.per_server[global_server(lease->host_rack, lease->host_slot)]
          .nodes_hosted;
  }
  return out;
}

}  // namespace pam
