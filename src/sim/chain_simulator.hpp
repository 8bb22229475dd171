// Discrete-event simulator of one service chain on one SmartNIC/CPU server.
//
// Mapping from the physical system to the model (DESIGN.md §2):
//
//   SmartNIC NPU complex  -> one FcfsServer; a packet visiting NF i on it
//                            occupies the server for
//                            load_factor x size x 8 / θ^S_i
//   CPU complex           -> one FcfsServer, same rule with θ^C_i; also
//                            serves per-crossing driver/DMA work
//   PCIe link             -> FcfsServer for serialisation + a pure delay of
//                            PcieLink::fixed_cost() per crossing
//   NF software overhead  -> pure delay (Calibration::nf_overhead) per hop;
//                            pipeline latency, not server occupancy
//
// With these rules a device saturates exactly when the paper's linear
// utilisation Σ θ_cur/θ^D_i reaches 1 — the DES realises the analytic model
// and adds what the closed form cannot: queueing, drop-tail loss, transient
// behaviour during migrations.
//
// Functional NFs (real classification/rewriting/counting on real header
// bytes) run at service completion, so behavioural tests and performance
// tests exercise one code path.
//
// Every hop of a packet — arrival, NF service done, the nf_overhead delay,
// the PCIe link, its fixed delay and the host driver job — is a typed
// EventRecord whose sink is this simulator (see Kind in the .cpp), so
// the datapath schedules no closures and allocates nothing per packet.
// The fixed delays (nf_overhead, the PCIe fixed cost, the inter-server
// hop) go on EventQueue delay lines rather than its heap.
//
// The engine guts (event queue, packet pool, warmup/horizon/drain, periodic
// scheduling) live in SimulationKernel.  A ChainSimulator always advances
// on a kernel it is handed and contends for a rack slot's ServerDevices it
// is handed: it is one chain of a ClusterSimulator rack, and
// DatacenterSimulator drives every run, a single chain included (one rack,
// one slot).  Individual nodes can be re-bound to *other* rack slots at
// runtime (cross-server scale-out); a packet whose next hop lives on a
// different server pays a fixed inter-server forwarding latency and
// re-enters at that server's SmartNIC side.
//
// Determinism: single-threaded, seeded, stable event ordering — identical
// inputs give bit-identical reports.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "chain/calibration.hpp"
#include "chain/service_chain.hpp"
#include "common/ring_buffer.hpp"
#include "device/server.hpp"
#include "nf/network_function.hpp"
#include "packet/packet_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/fcfs_server.hpp"
#include "sim/shard_fabric.hpp"
#include "sim/sim_report.hpp"
#include "sim/simulation_kernel.hpp"
#include "trafficgen/traffic_source_config.hpp"

namespace pam {

class ChainSimulator final : public EventSink {
 public:
  /// Advances on `kernel` and contends for the rack slot `devices`.
  /// `home_server_id` names the slot for reporting and cross-server
  /// routing.  All referenced objects must outlive the simulator.  Drive
  /// with start(), then the kernel, then build_report().
  ChainSimulator(SimulationKernel& kernel, ServerDevices& devices,
                 std::size_t home_server_id, ServiceChain chain, Server& server,
                 TrafficSourceConfig traffic,
                 Calibration calibration = Calibration::defaults());

  ~ChainSimulator();

  ChainSimulator(const ChainSimulator&) = delete;
  ChainSimulator& operator=(const ChainSimulator&) = delete;

  // --- driving ---------------------------------------------------------------

  /// Schedules the first traffic arrival.  Call once, before the kernel
  /// runs (DatacenterSimulator::run does).
  void start();

  /// Assembles the SimReport from the current counters: metrics cover
  /// [warmup, horizon], and after the kernel's drain every packet is
  /// delivered, dropped or parked, so conservation is exact.
  [[nodiscard]] SimReport build_report() const;

  // --- controller / migration-engine API -----------------------------------

  [[nodiscard]] SimTime now() const noexcept { return kernel_->now(); }
  [[nodiscard]] const ServiceChain& chain() const noexcept { return chain_; }
  [[nodiscard]] Server& server() noexcept { return *server_; }
  [[nodiscard]] const Calibration& calibration() const noexcept { return calibration_; }
  /// The kernel this chain advances on; schedule perturbations here.
  [[nodiscard]] SimulationKernel& kernel() noexcept { return *kernel_; }

  /// The functional NF instance at chain position i.
  [[nodiscard]] NetworkFunction& nf(std::size_t i) { return *nodes_.at(i).nf; }
  /// Swap in a new instance (the migration engine's restore step).
  void replace_nf(std::size_t i, std::unique_ptr<NetworkFunction> fresh);

  /// Re-place node i (takes effect for packets not yet routed to it).
  void set_node_location(std::size_t i, Location loc);

  // --- cross-server placement ----------------------------------------------

  /// Re-bind node i to another rack slot (cross-server scale-out).  Takes
  /// effect for packets not yet routed to it; `devices` must outlive the
  /// simulator.  Every slot of a rack has this chain's hardware model.
  void set_node_server(std::size_t i, std::size_t server_id,
                       ServerDevices& devices);
  [[nodiscard]] std::size_t node_server(std::size_t i) const {
    return nodes_.at(i).binding.server;
  }
  [[nodiscard]] std::size_t home_server() const noexcept { return home_.server; }
  /// Count of nodes currently bound away from the home slot.
  [[nodiscard]] std::size_t nodes_off_home() const noexcept;

  /// One-way forwarding latency between rack slots (default 50 us).
  void set_inter_server_latency(SimTime latency) noexcept {
    inter_server_latency_ = latency;
  }

  /// Traffic-source active window (churn scenarios): the first arrival is
  /// scheduled at `start`, and the source emits nothing at or after `stop`
  /// (negative stop = the tenant never departs).  Call before start().
  /// In-flight packets still drain normally after departure.
  void set_active_window(SimTime start, SimTime stop) noexcept {
    active_start_ = start;
    active_stop_ = stop;
  }

  /// Pause: packets arriving at node i are buffered, not processed.
  void pause_node(std::size_t i);
  /// Resume: flushes the buffer through the node at its current location.
  void resume_node(std::size_t i);
  [[nodiscard]] bool paused(std::size_t i) const { return nodes_.at(i).paused; }
  [[nodiscard]] std::size_t buffered_at(std::size_t i) const {
    return nodes_.at(i).buffer.size();
  }

  /// Ingress rate observed over the trailing window (controller input).
  [[nodiscard]] Gbps observed_ingress_rate(SimTime window) const;

  /// Total packets buffered across all pause windows so far.
  [[nodiscard]] std::uint64_t total_buffered() const noexcept { return total_buffered_; }

  // --- cross-rack leases (sharded datacenter mode) --------------------------
  //
  // A DatacenterOrchestrator can lease one of this chain's nodes to a slot
  // on another rack (a different kernel shard).  The home simulator then
  // hands packets reaching that node to the fabric egress instead of
  // processing them locally, and the fabric hands each one back, with the
  // visit's outcome, via resume_from_remote.  The packet itself crosses:
  // it stays owned by the home kernel's pool and counted in in_flight_
  // throughout, so conservation is exact, and a payload still pending when
  // it leaves is filled only if something reads it.

  /// Installs the fabric egress: every packet reaching a remote node is
  /// handed to `sink` as the record {kind, pkt, node = its position,
  /// b = tag}, called at once.
  void set_fabric_egress(EventSink* sink, std::uint32_t kind, std::uint64_t tag) {
    egress_sink_ = sink;
    egress_kind_ = kind;
    egress_tag_ = tag;
  }

  /// Marks node i as leased to another rack.  Takes effect for packets not
  /// yet routed to it; requires a fabric hook before traffic reaches it.
  void set_node_remote(std::size_t i, bool remote) { nodes_.at(i).remote = remote; }
  [[nodiscard]] bool node_remote(std::size_t i) const { return nodes_.at(i).remote; }
  /// Count of nodes currently leased to other racks.
  [[nodiscard]] std::size_t nodes_remote() const noexcept;

  /// Detaches the functional NF instance at i so it can move into the lease
  /// on the host rack (the NF's state travels with it — same rule as
  /// intra-rack migration).  Mark the node remote before packets flow.
  [[nodiscard]] std::unique_ptr<NetworkFunction> take_nf(std::size_t i) {
    return std::move(nodes_.at(i).nf);
  }

  /// Takes back a packet returning from its remote visit to node i: a
  /// passed packet advances past node i; a dropped one is charged to home
  /// counters and released into the home pool.
  void resume_from_remote(std::size_t i, Packet* p, FabricFrame::Outcome outcome);

  /// Packets sent over the cross-rack fabric by this chain.
  [[nodiscard]] std::uint64_t cross_rack_hops() const noexcept {
    return cross_rack_hops_;
  }

 private:
  /// Which rack slot a node (or virtual endpoint) executes on.
  struct NodeBinding {
    std::size_t server = 0;
    ServerDevices* devices = nullptr;
  };

  /// A packet's current position between hops: rack slot + device side.
  struct Hop {
    std::size_t server = 0;
    Location side = Location::kSmartNic;
  };

  struct Parked {
    Packet* pkt;
    Hop at;
  };

  /// Everything kept per chain position.
  struct Node {
    NodeBinding binding;                  ///< execution slot
    std::unique_ptr<NetworkFunction> nf;  ///< functional instance
    bool paused = false;
    bool remote = false;        ///< leased to another rack (datacenter mode)
    std::vector<Parked> buffer;  ///< packets parked while paused
    std::uint64_t packets = 0;   ///< metered visits
    LatencyRecorder residence;   ///< queue wait + service per metered visit
  };

  /// Dispatches one of this simulator's typed events (traffic source and
  /// packet hops).
  void on_event(const EventRecord& ev) override;

  /// A record of kind `kind` for `p` at chain position `node`.
  [[nodiscard]] EventRecord record(std::uint32_t kind, Packet* p, std::size_t node);

  void schedule_next_arrival();
  void inject(std::size_t size_bytes);
  void advance(Packet* p, std::size_t idx, Hop from);
  void send_to_fabric(Packet* p, std::size_t idx);
  void process_node(Packet* p, std::size_t idx);
  void nf_done(Packet* p, std::size_t idx, Location loc, SimTime submitted_at);
  /// Crosses the PCIe link of `binding`'s slot (this chain's PCIe model
  /// on that slot's link queue), then continues at chain position `next`:
  /// process that node, or deliver when it is past the last one.
  void cross_pcie(Packet* p, const NodeBinding& binding, std::size_t next);
  /// Forwards to rack slot `to_server`, then advances to position `idx`.
  void forward_to_server(Packet* p, std::size_t to_server, std::size_t idx);
  void deliver(Packet* p);
  void drop(Packet* p, std::uint64_t& counter);
  void finish(Packet* p);
  [[nodiscard]] bool metering() const noexcept { return kernel_->metering(); }
  [[nodiscard]] PacketPool& pool() noexcept { return kernel_->pool(); }

  ServiceChain chain_;
  Server* server_;
  Calibration calibration_;
  TrafficSourceConfig traffic_;

  SimulationKernel* kernel_;
  NodeBinding home_;         ///< home rack slot (ingress/egress side)
  std::vector<Node> nodes_;  ///< per chain position
  SimTime inter_server_latency_ = SimTime::microseconds(50.0);
  SimTime active_start_ = SimTime::zero();
  SimTime active_stop_ = SimTime::nanoseconds(-1);  ///< negative: never stops

  EventSink* egress_sink_ = nullptr;  ///< fabric egress (set_fabric_egress)
  std::uint32_t egress_kind_ = 0;
  std::uint64_t egress_tag_ = 0;

  FlowGenerator flowgen_;
  Rng rng_;

  bool ran_ = false;

  // accounting
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t dropped_queue_nic_ = 0;
  std::uint64_t dropped_queue_cpu_ = 0;
  std::uint64_t dropped_queue_pcie_ = 0;
  std::uint64_t dropped_by_nf_ = 0;
  std::uint64_t total_buffered_ = 0;
  std::uint64_t crossings_total_ = 0;
  std::uint64_t server_hops_total_ = 0;
  std::uint64_t cross_rack_hops_ = 0;

  // measurement window
  LatencyRecorder latency_;
  std::uint64_t measured_delivered_ = 0;
  std::uint64_t measured_injected_ = 0;
  std::uint64_t measured_delivered_bytes_ = 0;
  std::uint64_t measured_injected_bytes_ = 0;
  std::uint64_t measured_crossings_ = 0;

  // trailing-window ingress estimator: (arrival time, bytes) of the latest
  // arrivals, at most 65,536, and the running byte sum over them
  struct Arrival {
    SimTime at;
    std::uint64_t bytes = 0;
  };
  mutable BlockFifo<Arrival, 256> ingress_window_;
  mutable std::uint64_t ingress_bytes_ = 0;
};

}  // namespace pam
