#include "sim/datacenter_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

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
  for (std::size_t r = 0; r < options.shards; ++r) {
    racks_.push_back(std::make_unique<ClusterSimulator>(
        per_rack_, options.calibration, options.intra_rack_latency));
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

DatacenterSimulator::Lease* DatacenterSimulator::find_lease(std::size_t c,
                                                            std::size_t node) {
  for (const auto& lease : leases_) {
    if (lease->chain == c && lease->node == node) {
      return lease.get();
    }
  }
  return nullptr;
}

std::size_t DatacenterSimulator::lease_host(std::size_t c, std::size_t node) const {
  for (const auto& lease : leases_) {
    if (lease->chain == c && lease->node == node) {
      return global_server(lease->host_rack, lease->host_slot);
    }
  }
  assert(false && "lease_host queried for a node that is not leased");
  return 0;
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
  leases_.push_back(std::move(lease));
  sim.set_node_remote(node, true);
  return true;
}

void DatacenterSimulator::send_visit(std::size_t c, std::size_t node, Packet* p) {
  const Lease* lease = find_lease(c, node);
  assert(lease != nullptr && "remote node without a lease");
  const std::size_t home = home_rack_of(c);
  FabricFrame frame;
  frame.kind = FabricFrame::Kind::kVisit;
  frame.chain = c;
  frame.node = node;
  frame.sent_at = racks_[home]->kernel().now();
  frame.packet = p;
  fabric_.send(home, lease->host_rack, std::move(frame));
}

void DatacenterSimulator::deliver_frame(std::size_t dst, const FabricFrame& frame) {
  // Lookahead: sent_at lies inside the epoch that just ended, so the
  // arrival is always at or after the barrier the destination sits at.
  EventRecord arrive;
  arrive.sink = this;
  arrive.kind =
      frame.kind == FabricFrame::Kind::kVisit ? kVisitArrive : kReturnArrive;
  arrive.pkt = frame.packet;
  arrive.node = static_cast<std::uint32_t>(frame.node);
  arrive.a = dst;
  arrive.b = frame.chain;
  arrive.c = static_cast<std::uint64_t>(frame.outcome);
  racks_[dst]->kernel().queue().schedule_at(
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
  const Lease* lease = find_lease(c, node);
  assert(lease != nullptr && lease->host_rack == host);
  ClusterSimulator& rack = *racks_[host];

  // Leased NFs always execute on the host SmartNIC: same occupancy rule as
  // ChainSimulator::process_node, against the host slot's shared NIC.
  FcfsServer& nic = rack.devices(lease->host_slot).nic;
  const SimTime service =
      serialization_delay(p->wire_bytes(),
                          lease->spec.capacity.on(Location::kSmartNic)) *
      lease->spec.load_factor;
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
  Lease* lease = find_lease(c, node);
  SimulationKernel& kernel = racks_[host]->kernel();
  if (kernel.metering()) {
    ++lease->packets;
    lease->residence.record(kernel.now() - submitted_at);
  }
  p->note_hop();
  const Verdict verdict = lease->nf->handle(*p, kernel.now());
  bool nf_drop = verdict == Verdict::kDrop;
  if (!nf_drop && lease->spec.pass_ratio < 1.0 &&
      lease->rng.chance(1.0 - lease->spec.pass_ratio)) {
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
  kernel.queue().schedule_after(
      racks_[host]->calibration().nf_overhead(Location::kSmartNic), back);
}

void DatacenterSimulator::exchange() {
  // Mailbox order already encodes (dst, src, seq).
  fabric_.exchange([this](std::size_t, std::size_t dst, const FabricFrame& frame) {
    deliver_frame(dst, frame);
  });
}

DatacenterReport DatacenterSimulator::run(SimTime duration, SimTime warmup,
                                          std::size_t threads) {
  assert(!ran_ && "DatacenterSimulator::run is single-shot");
  ran_ = true;
  for (auto& rack : racks_) {
    rack->kernel().arm(duration, warmup);
    rack->begin();
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

  return assemble(duration);
}

DatacenterReport DatacenterSimulator::assemble(SimTime duration) {
  DatacenterReport out;
  out.epochs = epochs_;
  out.cross_rack_frames = fabric_.frames_exchanged();

  std::vector<ClusterReport> rack_reports;
  rack_reports.reserve(racks_.size());
  for (auto& rack : racks_) {
    rack_reports.push_back(rack->collect(duration));
  }

  ClusterReport& fleet = out.cluster;
  fleet.servers = num_servers();
  fleet.duration = duration;
  fleet.per_server.resize(num_servers());
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    for (std::size_t s = 0; s < per_rack_; ++s) {
      ServerSummary& sum = fleet.per_server[global_server(r, s)];
      sum = rack_reports[r].per_server[s];
      sum.server_id = global_server(r, s);
    }
    fleet.cross_rack_hops += rack_reports[r].cross_rack_hops;
  }

  // Per-chain reports in global id order; fleet totals and the merged
  // latency distribution accumulate in that same order, so the merge is
  // independent of rack partitioning details like thread assignment.
  double goodput = 0.0;
  double offered = 0.0;
  fleet.per_chain.reserve(chain_map_.size());
  for (std::size_t c = 0; c < chain_map_.size(); ++c) {
    const ChainRef& ref = chain_map_[c];
    SimReport report = std::move(rack_reports[ref.rack].per_chain[ref.local]);
    fleet.injected += report.injected;
    fleet.delivered += report.delivered;
    fleet.dropped_total += report.dropped_total();
    fleet.in_flight_at_end += report.in_flight_at_end;
    fleet.pcie_crossings += report.pcie_crossings;
    fleet.inter_server_hops += report.inter_server_hops;
    fleet.latency.merge(report.latency);
    goodput += report.egress_goodput.value();
    offered += report.offered_rate.value();
    fleet.per_chain.push_back(std::move(report));
  }
  fleet.egress_goodput = Gbps{goodput};
  fleet.offered_rate = Gbps{offered};

  // Leased nodes: their visit stats live host-side; patch them into the
  // home chain's per-node view and credit the host slot with the node.
  for (const auto& lease : leases_) {
    SimReport& report = fleet.per_chain[lease->chain];
    NodeSummary& node = report.per_node.at(lease->node);
    node.location = Location::kSmartNic;
    node.packets = lease->packets;
    if (lease->packets > 0) {
      node.mean_residence = lease->residence.mean();
      node.p99_residence = lease->residence.quantile(0.99);
    }
    ++fleet.per_server[global_server(lease->host_rack, lease->host_slot)]
          .nodes_hosted;
  }

  out.shards.reserve(racks_.size());
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    ShardSummary ss;
    ss.shard = r;
    ss.first_server = global_server(r, 0);
    ss.servers = per_rack_;
    ss.events_executed = racks_[r]->kernel().queue().executed();
    ss.injected = rack_reports[r].injected;
    ss.delivered = rack_reports[r].delivered;
    ss.dropped = rack_reports[r].dropped_total;
    ss.in_flight_at_end = rack_reports[r].in_flight_at_end;
    ss.frames_out = fabric_.frames_from(r);
    out.shards.push_back(ss);
  }
  return out;
}

}  // namespace pam
