// Datacenter-scale simulation: R racks x S servers, one kernel shard per
// rack, advancing in deterministic lock-step epochs.
//
// This is FNCS-style federated conservative time synchronization applied
// inside one process.  Each rack is a full ClusterSimulator — its own
// EventQueue, PacketPool, ServerDevices and embedded ChainSimulators — and
// the only coupling between racks is the cross-rack fabric, whose one-way
// latency is the epoch quantum.  That latency is the lookahead guarantee:
// a packet sent onto the fabric during epoch k cannot arrive before the
// barrier that ends epoch k, so every shard can run a full epoch without
// observing any other shard.
//
// One rack is how every `[cluster] shards = 1` scenario runs, and a rack of
// one slot is how a single chain runs (compare, capacity and timeline
// scenarios): a lease must cross racks, so no frame ever enters the fabric
// and the epochs only cut one kernel's run at quantum boundaries, which
// leaves its event order unchanged.  run() advances the epochs; report()
// then assembles the DatacenterReport, which a one-chain caller skips in
// favour of its chain's own build_report().
//
// The epoch loop:
//
//   1. every shard runs `advance_until(k * quantum)` — in parallel when a
//      thread pool is configured (sim/epoch_executor.hpp), shards touching
//      only their own state plus their own mailbox row of the ShardFabric;
//   2. barrier: the main thread alone drains all mailboxes in (dst,
//      arrival time, src, seq) order, putting each frame's arrival at
//      sent_at + latency on the destination shard's arrival line;
//   3. the barrier hook fires (the DatacenterOrchestrator's control tier:
//      sensing rack pressure, committing cross-rack leases);
//   4. repeat to the horizon, then keep epoch-cycling with stopped sources
//      until every queue and mailbox is dry, so conservation is exact.
//
// Because mailbox drain order is fixed and each shard's intra-epoch
// execution is single-threaded DES, the run is bit-identical for
// threads=1 and threads=N — the thread count never appears in any result.
//
// Cross-rack placement is lease-based: a chain node moved to another rack
// (ControlEvent kind `cross_rack_move`) keeps its home-chain identity, but
// its functional NF instance travels to the host rack, where each visit
// occupies the host slot's SmartNIC like any resident NF.  The packet
// itself reaches it in a FabricFrame and returns the same way, owned by its
// home rack's pool throughout: the shard boundary copies no bytes, forces
// no payload fill and allocates nothing per packet.  Every hop of the
// crossing is a typed EventRecord whose sink is this simulator.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nf/network_function.hpp"
#include "sim/cluster_simulator.hpp"
#include "sim/shard_fabric.hpp"
#include "sim/sim_report.hpp"

namespace pam {

/// Device-level view of one server slot over the whole run.
struct ServerSummary {
  std::size_t server_id = 0;
  std::size_t chains_homed = 0;    ///< chains whose ingress/egress live here
  std::size_t nodes_hosted = 0;    ///< chain nodes bound here at run end
  double smartnic_utilization = 0.0;
  double cpu_utilization = 0.0;
  double pcie_utilization = 0.0;
  /// Packet accounting summed over the chains homed on this slot.
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

/// Per-shard totals of one datacenter run (report + invariant surface).
struct ShardSummary {
  std::size_t shard = 0;
  std::size_t first_server = 0;  ///< global id of the rack's first slot
  std::size_t servers = 0;
  std::uint64_t events_executed = 0;  ///< DES events on this shard's queue
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t in_flight_at_end = 0;
  std::uint64_t frames_out = 0;  ///< fabric frames this shard sent
};

/// One datacenter run with global server and chain ids, built in one pass
/// over the chains; the same shape for one rack or many, so downstream
/// consumers are agnostic to sharding.
struct DatacenterReport {
  std::vector<SimReport> per_chain;       ///< by global chain id
  std::vector<ServerSummary> per_server;  ///< by global server id
  /// The fleet total: counts, drops and rates summed over the chains,
  /// latency merged in chain order, crossings per packet weighted by each
  /// chain's measured deliveries, utilisation of the hottest slot.
  SimReport fleet;
  std::vector<ShardSummary> shards;
  std::uint64_t cross_rack_hops = 0;  ///< packets the chains sent to a lease
  std::uint64_t cross_rack_frames = 0;
  std::uint64_t epochs = 0;
};

class DatacenterSimulator final : public EventSink {
 public:
  /// The defaults are one rack with one slot: how a single chain runs.
  struct Options {
    std::size_t shards = 1;
    std::size_t servers_total = 1;  ///< must be divisible by shards
    SimTime intra_rack_latency = SimTime::microseconds(50.0);
    /// One-way cross-rack fabric latency == the epoch quantum (lookahead).
    SimTime cross_rack_latency = SimTime::microseconds(100.0);
  };

  explicit DatacenterSimulator(const Options& options);

  DatacenterSimulator(const DatacenterSimulator&) = delete;
  DatacenterSimulator& operator=(const DatacenterSimulator&) = delete;

  // --- topology -------------------------------------------------------------

  [[nodiscard]] std::size_t num_racks() const noexcept { return racks_.size(); }
  [[nodiscard]] std::size_t per_rack() const noexcept { return per_rack_; }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return racks_.size() * per_rack_;
  }
  [[nodiscard]] SimTime quantum() const noexcept {
    return options_.cross_rack_latency;
  }
  [[nodiscard]] ClusterSimulator& rack(std::size_t r) { return *racks_.at(r); }

  [[nodiscard]] std::size_t rack_of(std::size_t global_server) const noexcept {
    return global_server / per_rack_;
  }
  [[nodiscard]] std::size_t slot_of(std::size_t global_server) const noexcept {
    return global_server % per_rack_;
  }
  [[nodiscard]] std::size_t global_server(std::size_t r, std::size_t slot) const noexcept {
    return r * per_rack_ + slot;
  }

  // --- chains (global ids, in add order) ------------------------------------

  /// Adds a chain homed on global slot `home`. Returns the global chain id.
  std::size_t add_chain(ServiceChain chain, TrafficSourceConfig traffic,
                        std::size_t home);
  [[nodiscard]] std::size_t num_chains() const noexcept { return chain_map_.size(); }
  [[nodiscard]] std::size_t home_rack_of(std::size_t c) const {
    return chain_map_.at(c).rack;
  }
  [[nodiscard]] std::size_t local_chain_of(std::size_t c) const {
    return chain_map_.at(c).local;
  }
  /// Inverse of (home_rack_of, local_chain_of).  Written only by add_chain,
  /// so shard threads may read it mid-run.
  [[nodiscard]] std::size_t global_chain(std::size_t r, std::size_t local) const {
    return rack_chains_.at(r).at(local);
  }
  [[nodiscard]] std::size_t home_server_of(std::size_t c) const {
    return chain_home_.at(c);
  }
  [[nodiscard]] ChainSimulator& chain_sim(std::size_t c) {
    const ChainRef& ref = chain_map_.at(c);
    return racks_[ref.rack]->chain_sim(ref.local);
  }

  // --- global-id signals (orchestrator + experiment layer) ------------------

  [[nodiscard]] double server_nic_load(std::size_t gs) const {
    return racks_[rack_of(gs)]->server_nic_load(slot_of(gs));
  }
  [[nodiscard]] double server_cpu_load(std::size_t gs) const {
    return racks_[rack_of(gs)]->server_cpu_load(slot_of(gs));
  }
  [[nodiscard]] bool server_alive(std::size_t gs) const {
    return racks_[rack_of(gs)]->server_alive(slot_of(gs));
  }

  // --- scheduled perturbations (failure / hostile kinds) --------------------

  /// Schedules `fn` on rack `r`'s kernel — the event must touch only that
  /// rack's state (shard isolation).
  void schedule_on_rack(std::size_t r, SimTime at, std::function<void()> fn);
  /// Re-shapes every rack's *intra*-rack fabric at `at` (one rack-local
  /// event per shard; the cross-rack quantum is fixed at construction).
  void schedule_fabric_latency(SimTime at, SimTime latency);

  // --- cross-rack leases (barrier-time only) --------------------------------

  /// Creates a lease: node `node` of chain `c` moves to global slot
  /// `target`, taking its NF instance along.  Returns false (no state
  /// changed) when the target slot is dead.  Leases are permanent for the
  /// remainder of the run.
  bool commit_lease(std::size_t c, std::size_t node, std::size_t target);

  // --- epoch loop hooks -----------------------------------------------------

  /// Runs at every epoch barrier, after the frame exchange, with all shard
  /// kernels quiescent at the barrier time.  `draining` is true once the
  /// horizon has passed.
  void set_barrier_hook(std::function<void(SimTime, bool)> hook) {
    barrier_hook_ = std::move(hook);
  }
  /// While it returns true the drain phase keeps cycling even with empty
  /// queues (e.g. a cross-rack move still pending commit).
  void set_drain_gate(std::function<bool()> gate) { drain_gate_ = std::move(gate); }

  /// Runs the whole datacenter to the horizon and drains.  Single-shot.
  /// `threads` sets the epoch executor's pool size; results are
  /// bit-identical for any value.
  void run(SimTime duration, SimTime warmup, std::size_t threads);

  /// The run's DatacenterReport, assembled in one pass over the chains;
  /// valid after run().  A caller that reads one chain reads
  /// chain_sim(c).build_report() instead and never pays for the fleet total.
  [[nodiscard]] DatacenterReport report() const;

 private:
  struct ChainRef {
    std::size_t rack = 0;
    std::size_t local = 0;
  };

  /// A chain node leased to a remote rack: the NF instance, a copy of the
  /// node spec it runs under, and the host-side visit stats merged into the
  /// home chain's report at collect time.
  struct Lease {
    std::size_t chain = 0;
    std::size_t node = 0;
    std::size_t host_rack = 0;
    std::size_t host_slot = 0;  ///< rack-local
    NfSpec spec;
    std::unique_ptr<NetworkFunction> nf;
    Rng rng;  ///< lease-local pass_ratio stream (deterministic lineage)
    std::uint64_t packets = 0;     ///< metered visits
    LatencyRecorder residence;
  };

  /// The lease of remote node (c, node): one index lookup, read-only
  /// mid-epoch (the index changes only in commit_lease, at a barrier).
  [[nodiscard]] Lease& find_lease(std::size_t c, std::size_t node) const;

  void send_visit(std::size_t c, std::size_t node, Packet* p);
  void deliver_frame(std::size_t dst, const FabricFrame& frame);
  void host_visit(std::size_t host, std::size_t c, std::size_t node, Packet* p);
  /// The lease path's typed events (see Kind in the .cpp): a packet leaves
  /// its home chain, arrives at the host, finishes its visit on the host
  /// NIC, clears the visit's nf_overhead delay and arrives back home.
  void on_event(const EventRecord& ev) override;
  void lease_nf_done(std::size_t host, std::size_t c, std::size_t node, Packet* p,
                     SimTime submitted_at);
  void send_return(std::size_t host, std::size_t c, std::size_t node,
                   FabricFrame::Outcome outcome, Packet* p);
  void exchange();

  Options options_;
  std::size_t per_rack_;
  std::vector<std::unique_ptr<ClusterSimulator>> racks_;
  ShardFabric fabric_;
  std::vector<ChainRef> chain_map_;     ///< global chain -> (rack, local)
  std::vector<std::size_t> chain_home_; ///< global chain -> global home slot
  std::vector<std::vector<std::size_t>> rack_chains_;  ///< [rack][local] -> global
  std::vector<std::unique_ptr<Lease>> leases_;  ///< in commit order
  /// [global chain][node] -> its lease, or null; rows grow in commit_lease.
  std::vector<std::vector<Lease*>> lease_index_;
  std::function<void(SimTime, bool)> barrier_hook_;
  std::function<bool()> drain_gate_;
  std::uint64_t epochs_ = 0;
  bool ran_ = false;
};

}  // namespace pam
