#include "sim/chain_simulator.hpp"

#include <cassert>

#include "nf/nf_factory.hpp"
#include "packet/packet_builder.hpp"

namespace pam {

namespace {

/// The simulator's typed events.  Payload fields per kind:
///   kArrival     a = frame size of the packet to inject
///   kSourcePoll  (none) — re-run the traffic source
///   kNfDone      pkt, node, a = submit time, b = NF location
///   kAdvance     pkt, node = next position, a = rack slot, b = side
///   kPcieDone    pkt, node = next position, a = ServerDevices*,
///                b = fixed delay, c = driver service
///   kPcieFixed   pkt, node = next position, a = ServerDevices*,
///                c = driver service
///   kPcieCont    pkt, node = next position (deliver past the last)
/// Times are in ns.
enum Kind : std::uint32_t {
  kArrival,
  kSourcePoll,
  kNfDone,
  kAdvance,
  kPcieDone,
  kPcieFixed,
  kPcieCont,
};

/// Ingress-window entries kept at most.
constexpr std::size_t kIngressWindowCap = 65536;

std::uint64_t word(SimTime t) { return static_cast<std::uint64_t>(t.ns()); }
SimTime time_of(std::uint64_t w) {
  return SimTime::nanoseconds(static_cast<std::int64_t>(w));
}
std::uint64_t word(ServerDevices* devices) {
  return reinterpret_cast<std::uintptr_t>(devices);
}
ServerDevices* devices_of(std::uint64_t w) {
  return reinterpret_cast<ServerDevices*>(static_cast<std::uintptr_t>(w));
}

}  // namespace

ChainSimulator::ChainSimulator(SimulationKernel& kernel, ServerDevices& devices,
                               std::size_t home_server_id, ServiceChain chain,
                               Server& server, TrafficSourceConfig traffic,
                               Calibration calibration)
    : chain_(std::move(chain)),
      server_(&server),
      calibration_(calibration),
      traffic_(std::move(traffic)),
      kernel_(&kernel),
      home_{home_server_id, &devices},
      flowgen_(traffic_.flows, traffic_.seed),
      rng_(traffic_.seed ^ 0xabcdef0123456789ull) {
  chain_.validate();
  nodes_.resize(chain_.size());
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const auto& spec = chain_.node(i).spec;
    nodes_[i].binding = home_;
    nodes_[i].nf = make_network_function(spec.type, spec.name, spec.load_factor);
  }
}

ChainSimulator::~ChainSimulator() {
  // Release anything still parked so the pool's leak check stays meaningful.
  for (auto& node : nodes_) {
    for (auto& parked : node.buffer) {
      pool().release(parked.pkt);
    }
    node.buffer.clear();
  }
}

void ChainSimulator::replace_nf(std::size_t i, std::unique_ptr<NetworkFunction> fresh) {
  assert(fresh != nullptr);
  nodes_.at(i).nf = std::move(fresh);
}

void ChainSimulator::set_node_location(std::size_t i, Location loc) {
  chain_.set_location(i, loc);
}

void ChainSimulator::set_node_server(std::size_t i, std::size_t server_id,
                                     ServerDevices& devices) {
  nodes_.at(i).binding = NodeBinding{server_id, &devices};
}

std::size_t ChainSimulator::nodes_off_home() const noexcept {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.binding.server != home_.server) {
      ++n;
    }
  }
  return n;
}

std::size_t ChainSimulator::nodes_remote() const noexcept {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.remote) {
      ++n;
    }
  }
  return n;
}

void ChainSimulator::pause_node(std::size_t i) { nodes_.at(i).paused = true; }

void ChainSimulator::resume_node(std::size_t i) {
  Node& node = nodes_.at(i);
  node.paused = false;
  auto parked = std::move(node.buffer);
  node.buffer.clear();
  for (auto& entry : parked) {
    advance(entry.pkt, i, entry.at);
  }
}

Gbps ChainSimulator::observed_ingress_rate(SimTime window) const {
  const SimTime cutoff = kernel_->now() - window;
  while (!ingress_window_.empty() && ingress_window_.front().at < cutoff) {
    ingress_bytes_ -= ingress_window_.front().bytes;
    ingress_window_.pop_front();
  }
  return rate_of(Bytes{ingress_bytes_}, window);
}

EventRecord ChainSimulator::record(std::uint32_t kind, Packet* p, std::size_t node) {
  EventRecord rec;
  rec.sink = this;
  rec.kind = kind;
  rec.pkt = p;
  rec.node = static_cast<std::uint32_t>(node);
  return rec;
}

void ChainSimulator::on_event(const EventRecord& ev) {
  Packet* p = ev.pkt;
  switch (ev.kind) {
    case kArrival:
      if (kernel_->stopped() || kernel_->now() >= kernel_->horizon() ||
          (active_stop_.ns() >= 0 && kernel_->now() >= active_stop_)) {
        return;
      }
      inject(ev.a);
      schedule_next_arrival();
      return;
    case kSourcePoll:
      schedule_next_arrival();
      return;
    case kNfDone:
      nf_done(p, ev.node, static_cast<Location>(ev.b), time_of(ev.a));
      return;
    case kAdvance:
      advance(p, ev.node, Hop{ev.a, static_cast<Location>(ev.b)});
      return;
    case kPcieDone: {
      EventRecord fixed = ev;
      fixed.kind = kPcieFixed;
      kernel_->queue().schedule_delayed(time_of(ev.b), fixed);
      return;
    }
    case kPcieFixed:
      // Host-side DMA/driver work shares the CPU with NF processing.
      if (!devices_of(ev.a)->cpu.submit(time_of(ev.c), record(kPcieCont, p, ev.node))) {
        drop(p, dropped_queue_cpu_);
      }
      return;
    case kPcieCont:
      if (ev.node < chain_.size()) {
        process_node(p, ev.node);
      } else {
        deliver(p);
      }
      return;
    default:
      assert(false && "unknown ChainSimulator event kind");
  }
}

void ChainSimulator::schedule_next_arrival() {
  if (kernel_->stopped()) {
    return;
  }
  if (active_stop_.ns() >= 0 && kernel_->now() >= active_stop_) {
    return;  // tenant departed: the source dies, in-flight packets drain
  }
  const Gbps rate = traffic_.rate.at(kernel_->now());
  const std::size_t next_size = traffic_.sizes.sample(rng_);
  if (rate.value() <= 1e-9) {
    // Source idle; poll the profile again shortly.
    kernel_->queue().schedule_after(SimTime::milliseconds(1.0),
                                    record(kSourcePoll, nullptr, 0));
    return;
  }
  const SimTime gap_mean = serialization_delay(Bytes{next_size}, rate);
  const SimTime gap =
      traffic_.process == ArrivalProcess::kPoisson
          ? SimTime::nanoseconds(static_cast<std::int64_t>(
                rng_.exponential(static_cast<double>(gap_mean.ns()))))
          : gap_mean;
  EventRecord arrival = record(kArrival, nullptr, 0);
  arrival.a = next_size;
  kernel_->queue().schedule_after(gap, arrival);
}

void ChainSimulator::inject(std::size_t size_bytes) {
  auto handle = pool().acquire(size_bytes);
  if (!handle) {
    // Mempool exhausted — the sender itself is backpressured; account as a
    // NIC-side loss.
    ++dropped_queue_nic_;
    ++injected_;
    return;
  }
  Packet* p = handle.release();
  PacketBuilder builder;
  builder.size(size_bytes)
      .flow(flowgen_.next(rng_))
      .payload_seed(rng_.next_u64());
  builder.build_into(*p);
  p->set_id(++injected_);
  p->set_ingress_time(kernel_->now());
  ++in_flight_;
  if (ingress_window_.size() == kIngressWindowCap) {
    ingress_bytes_ -= ingress_window_.front().bytes;
    ingress_window_.pop_front();
  }
  ingress_window_.push_back(Arrival{kernel_->now(), p->size()});
  ingress_bytes_ += p->size();
  if (metering()) {
    ++measured_injected_;
    measured_injected_bytes_ += p->size();
  }
  advance(p, 0, Hop{home_.server, side_of(chain_.ingress())});
}

void ChainSimulator::advance(Packet* p, std::size_t idx, Hop from) {
  if (idx >= chain_.size()) {
    // Egress is always served from the home slot.
    if (from.server != home_.server) {
      forward_to_server(p, home_.server, idx);
      return;
    }
    const Location egress_side = side_of(chain_.egress());
    if (from.side != egress_side) {
      cross_pcie(p, home_, chain_.size());
    } else {
      deliver(p);
    }
    return;
  }
  Node& node = nodes_[idx];
  if (node.paused) {
    node.buffer.push_back(Parked{p, from});
    ++total_buffered_;
    return;
  }
  if (node.remote) {
    // The node is leased to another rack: the packet leaves this shard in
    // a FabricFrame and comes back through resume_from_remote.
    send_to_fabric(p, idx);
    return;
  }
  const NodeBinding& binding = node.binding;
  if (from.server != binding.server) {
    // Next NF lives on another rack slot: forward over the inter-server
    // fabric; the packet re-enters at that slot's SmartNIC side.
    forward_to_server(p, binding.server, idx);
    return;
  }
  const Location loc = chain_.location_of(idx);
  if (loc != from.side) {
    cross_pcie(p, binding, idx);
  } else {
    process_node(p, idx);
  }
}

void ChainSimulator::send_to_fabric(Packet* p, std::size_t idx) {
  assert(egress_sink_ != nullptr && "remote node without a fabric egress");
  ++cross_rack_hops_;
  // The packet stays in flight (in_flight_ unchanged) until it comes back.
  EventRecord egress;
  egress.sink = egress_sink_;
  egress.kind = egress_kind_;
  egress.b = egress_tag_;
  egress.pkt = p;
  egress.node = static_cast<std::uint32_t>(idx);
  egress.sink->on_event(egress);
}

void ChainSimulator::resume_from_remote(std::size_t i, Packet* p,
                                        FabricFrame::Outcome outcome) {
  switch (outcome) {
    case FabricFrame::Outcome::kPassed:
      advance(p, i + 1, Hop{home_.server, Location::kSmartNic});
      return;
    case FabricFrame::Outcome::kDroppedNic:
      drop(p, dropped_queue_nic_);
      return;
    case FabricFrame::Outcome::kDroppedNf:
      drop(p, dropped_by_nf_);
      return;
  }
}

void ChainSimulator::forward_to_server(Packet* p, std::size_t to_server,
                                       std::size_t idx) {
  ++server_hops_total_;
  // Pure pipeline delay: no queueing model on the rack fabric.  The packet
  // re-enters at the slot's SmartNIC side.
  EventRecord arrive = record(kAdvance, p, idx);
  arrive.a = to_server;
  arrive.b = static_cast<std::uint64_t>(Location::kSmartNic);
  kernel_->queue().schedule_delayed(inter_server_latency_, arrive);
}

void ChainSimulator::cross_pcie(Packet* p, const NodeBinding& binding,
                                std::size_t next) {
  const PcieLink& pcie = server_->pcie();
  p->note_pcie_crossing();
  ++crossings_total_;

  const SimTime link_service = serialization_delay(p->wire_bytes(), pcie.bandwidth());
  // Link serialisation, then the fixed delay, then host driver work on the
  // slot's CPU (kPcieDone -> kPcieFixed -> kPcieCont).
  EventRecord done = record(kPcieDone, p, next);
  done.a = word(binding.devices);
  done.b = word(pcie.fixed_cost());
  done.c = word(serialization_delay(p->wire_bytes(), pcie.host_cost_rate()));
  if (!binding.devices->pcie.submit(link_service, done)) {
    drop(p, dropped_queue_pcie_);
  }
}

void ChainSimulator::process_node(Packet* p, std::size_t idx) {
  const auto& node = chain_.node(idx);
  const Location loc = node.location;
  const NodeBinding& binding = nodes_[idx].binding;
  FcfsServer& srv =
      loc == Location::kSmartNic ? binding.devices->nic : binding.devices->cpu;

  // Mean per-packet occupancy: a sampling NF (load_factor < 1) spends the
  // full service time on a fraction of packets; the simulator applies the
  // expectation uniformly, matching ChainAnalyzer (DESIGN.md §2).
  const SimTime service =
      serialization_delay(p->wire_bytes(), node.spec.capacity.on(loc)) *
      node.spec.load_factor;

  EventRecord done = record(kNfDone, p, idx);
  done.a = word(kernel_->now());
  done.b = static_cast<std::uint64_t>(loc);
  if (!srv.submit(service, done)) {
    drop(p, loc == Location::kSmartNic ? dropped_queue_nic_ : dropped_queue_cpu_);
  }
}

void ChainSimulator::nf_done(Packet* p, std::size_t idx, Location loc,
                             SimTime submitted_at) {
  Node& node = nodes_[idx];
  if (metering()) {
    ++node.packets;
    node.residence.record(kernel_->now() - submitted_at);
  }
  p->note_hop();
  const Verdict verdict = node.nf->handle(*p, kernel_->now());
  if (verdict == Verdict::kDrop) {
    drop(p, dropped_by_nf_);
    return;
  }
  // pass_ratio below the functional drop rate models policy drops for NF
  // configurations the functional object does not encode (spec-level
  // annotation; 1.0 in the paper scenarios).
  const auto& spec = chain_.node(idx).spec;
  if (spec.pass_ratio < 1.0 && rng_.chance(1.0 - spec.pass_ratio)) {
    drop(p, dropped_by_nf_);
    return;
  }
  EventRecord next = record(kAdvance, p, idx + 1);
  next.a = node.binding.server;
  next.b = static_cast<std::uint64_t>(loc);
  kernel_->queue().schedule_delayed(calibration_.nf_overhead(loc), next);
}

void ChainSimulator::deliver(Packet* p) {
  ++delivered_;
  if (metering()) {
    ++measured_delivered_;
    measured_delivered_bytes_ += p->size();
    measured_crossings_ += p->pcie_crossings();
    latency_.record(kernel_->now() - p->ingress_time());
  }
  finish(p);
}

void ChainSimulator::drop(Packet* p, std::uint64_t& counter) {
  ++counter;
  finish(p);
}

void ChainSimulator::finish(Packet* p) {
  assert(in_flight_ > 0);
  --in_flight_;
  pool().release(p);
}

void ChainSimulator::start() {
  assert(!ran_ && "a ChainSimulator instance runs once");
  ran_ = true;
  if (active_start_ > SimTime::zero()) {
    kernel_->queue().schedule_at(active_start_, record(kSourcePoll, nullptr, 0));
    return;
  }
  schedule_next_arrival();
}

SimReport ChainSimulator::build_report() const {
  const SimTime duration = kernel_->horizon();
  const SimTime warmup = kernel_->warmup();

  SimReport report;
  report.in_flight_at_end = in_flight_;
  report.duration = duration;
  report.injected = injected_;
  report.delivered = delivered_;
  report.dropped_queue_nic = dropped_queue_nic_;
  report.dropped_queue_cpu = dropped_queue_cpu_;
  report.dropped_queue_pcie = dropped_queue_pcie_;
  report.dropped_by_nf = dropped_by_nf_;
  report.latency = latency_;
  report.measured_delivered = measured_delivered_;

  const SimTime window = duration - warmup;
  report.egress_goodput = rate_of(Bytes{measured_delivered_bytes_}, window);
  report.offered_rate = rate_of(Bytes{measured_injected_bytes_}, window);
  report.smartnic_utilization = home_.devices->nic.utilization(duration);
  report.cpu_utilization = home_.devices->cpu.utilization(duration);
  report.pcie_utilization = home_.devices->pcie.utilization(duration);
  report.per_node.reserve(chain_.size());
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    NodeSummary node;
    node.name = chain_.node(i).spec.name;
    node.location = chain_.node(i).location;
    node.packets = nodes_[i].packets;
    if (nodes_[i].packets > 0) {
      node.mean_residence = nodes_[i].residence.mean();
      node.p99_residence = nodes_[i].residence.quantile(0.99);
    }
    report.per_node.push_back(std::move(node));
  }
  report.pcie_crossings = crossings_total_;
  report.inter_server_hops = server_hops_total_;
  report.mean_crossings_per_packet =
      measured_delivered_ > 0
          ? static_cast<double>(measured_crossings_) /
                static_cast<double>(measured_delivered_)
          : 0.0;
  return report;
}

}  // namespace pam
