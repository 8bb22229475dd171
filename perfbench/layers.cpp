#include "layers.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "chain/calibration.hpp"
#include "chain/chain_analyzer.hpp"
#include "chain/chain_spec.hpp"
#include "common/rng.hpp"
#include "core/pam_policy.hpp"
#include "device/server.hpp"
#include "nf/nf_factory.hpp"
#include "packet/packet_builder.hpp"
#include "packet/packet_pool.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/epoch_executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/fcfs_server.hpp"
#include "sim/shard_fabric.hpp"
#include "sim/simulation_kernel.hpp"
#include "trafficgen/flow_generator.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Simulated horizon of the replay simulations that supply the counts the
/// report does not expose.
constexpr double kReplayMs = 5.0;

/// Results of timed calls land here so the calls cannot be optimised away.
volatile double g_sink = 0;

/// The five NFs the workloads' chains are built from.
constexpr std::array<pam::NfType, 5> kNfTypes = {
    pam::NfType::kFirewall, pam::NfType::kMonitor, pam::NfType::kLogger,
    pam::NfType::kLoadBalancer, pam::NfType::kDpi};

/// Median over five repetitions of `body(ops)`, in ns per operation.
template <typename Body>
double ns_per_op(std::size_t ops, Body&& body) {
  std::array<double, 5> samples{};
  for (double& s : samples) {
    const auto t0 = Clock::now();
    body(ops);
    s = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(ops);
  }
  std::sort(samples.begin(), samples.end());
  return samples[2];
}

/// A closure the size of the simulator's per-hop continuations (owner,
/// packet, node index, hop), so std::function behaves as it does there.
struct HopClosure {
  std::uint64_t* counter;
  const void* packet;
  std::size_t node;
  std::size_t hop;
  void operator()() const { *counter += node + hop; }
};

/// One placed chain of the workload with its traffic, as the run used it.
struct ReplayChain {
  pam::ServiceChain chain;
  pam::TrafficSourceConfig traffic;
  std::size_t home = 0;   ///< rack slot (cluster kinds)
  double plan_gbps = 0;   ///< rate the control loop plans at
};

pam::RateProfile profile_of(const pam::RateSpec& rate) {
  switch (rate.kind) {
    case pam::RateSpec::Kind::kStep:
      return pam::RateProfile::step(pam::Gbps{rate.a}, pam::Gbps{rate.b},
                                    pam::SimTime::milliseconds(rate.at_ms));
    case pam::RateSpec::Kind::kSinusoid:
      return pam::RateProfile::sinusoid(pam::Gbps{rate.a}, pam::Gbps{rate.b},
                                        pam::SimTime::milliseconds(rate.period_ms));
    case pam::RateSpec::Kind::kFlash:
      return pam::RateProfile::schedule(
          {{pam::SimTime::zero(), pam::Gbps{rate.a}},
           {pam::SimTime::milliseconds(rate.at_ms), pam::Gbps{rate.b}},
           {pam::SimTime::milliseconds(rate.at_ms + rate.for_ms), pam::Gbps{rate.a}}});
    case pam::RateSpec::Kind::kConstant:
      break;
  }
  return pam::RateProfile::constant(pam::Gbps{rate.a});
}

double peak_gbps(const pam::ChainDecl& decl) {
  if (!decl.has_rate) {
    return decl.offered_gbps;
  }
  switch (decl.rate.kind) {
    case pam::RateSpec::Kind::kSinusoid:
      return decl.rate.a + decl.rate.b;
    case pam::RateSpec::Kind::kStep:
    case pam::RateSpec::Kind::kFlash:
      return std::max(decl.rate.a, decl.rate.b);
    case pam::RateSpec::Kind::kConstant:
      break;
  }
  return decl.rate.a;
}

std::vector<ReplayChain> replay_chains(const pam::RunResult& result) {
  const pam::ScenarioSpec& spec = result.spec;
  std::vector<ReplayChain> out;
  pam::TrafficSourceConfig base;
  base.process = spec.traffic.arrival;
  base.seed = spec.seed;
  if (spec.kind == pam::ScenarioKind::kCompare) {
    const pam::ServiceChain chain = pam::parse_chain_spec(spec.chain).value();
    for (const auto& variant : result.variants) {
      const pam::ServiceChain placed =
          variant.plan.feasible ? variant.plan.apply_to(chain) : chain;
      for (const auto& run : variant.runs) {
        pam::TrafficSourceConfig traffic = base;
        traffic.rate = pam::RateProfile::constant(pam::Gbps{variant.measure_rate_gbps});
        traffic.sizes =
            pam::PacketSizeDistribution::fixed(run.size_bytes ? run.size_bytes : 512);
        out.push_back({placed, traffic, 0, spec.plan_rate_gbps});
      }
    }
    return out;
  }
  for (std::size_t i = 0; i < spec.chains.size(); ++i) {
    const pam::ChainDecl& decl = spec.chains[i];
    pam::TrafficSourceConfig traffic = base;
    traffic.rate = decl.has_rate ? profile_of(decl.rate)
                                 : pam::RateProfile::constant(pam::Gbps{decl.offered_gbps});
    traffic.sizes = pam::PacketSizeDistribution::fixed(spec.traffic.sizes.fixed);
    traffic.seed = pam::Rng::derive(spec.seed, i);
    const auto home = static_cast<std::size_t>(
        decl.server >= 0 ? decl.server : static_cast<std::int64_t>(i % spec.cluster.servers));
    out.push_back({pam::parse_chain_spec(decl.spec, decl.name).value(), traffic, home,
                   peak_gbps(decl)});
  }
  return out;
}

/// Work counts of a short replay simulation of the workload's chains.
struct ReplayCounts {
  double injected = 0;
  std::vector<double> chain_injected;  ///< per replay chain, in chain order
  double events = 0;
  double fcfs_jobs = 0;
  std::map<pam::NfType, double> visits;
  double mean_pending = 0;      ///< EventQueue depth, sampled every 10 us
  std::size_t max_queue = 0;    ///< deepest FCFS queue seen
  double ingress_rate_us = 0;   ///< ChainSimulator::observed_ingress_rate
};

/// Compare runs are standalone (one kernel per chain and size); cluster
/// runs share one kernel and one device set per rack slot.
ReplayCounts replay(const std::vector<ReplayChain>& chains, bool shared_kernel) {
  ReplayCounts counts;
  const pam::Calibration calibration = pam::Calibration::defaults();
  double pending_sum = 0;
  double pending_samples = 0;
  double ingress_ns = 0;
  double ingress_calls = 0;

  auto run_group = [&](const std::vector<const ReplayChain*>& group) {
    pam::SimulationKernel kernel;
    std::map<std::size_t, std::unique_ptr<pam::ServerDevices>> devices;
    std::vector<std::unique_ptr<pam::Server>> servers;
    std::vector<std::unique_ptr<pam::ChainSimulator>> sims;
    for (const ReplayChain* rc : group) {
      auto& dev = devices[rc->home];
      if (!dev) {
        dev = std::make_unique<pam::ServerDevices>(kernel.queue(), calibration, "replay");
      }
      servers.push_back(std::make_unique<pam::Server>(pam::Server::paper_testbed()));
      sims.push_back(std::make_unique<pam::ChainSimulator>(
          kernel, *dev, rc->home, rc->chain, *servers.back(), rc->traffic, calibration));
    }
    kernel.schedule_periodic(pam::SimTime::zero(), pam::SimTime::microseconds(10.0), [&] {
      pending_sum += static_cast<double>(kernel.queue().pending());
      pending_samples += 1;
    });
    for (auto& sim : sims) {
      sim->start();
    }
    const double samples_before = pending_samples;
    kernel.run(pam::SimTime::milliseconds(kReplayMs), pam::SimTime::zero());
    // The sampler's own events are not simulation work.
    counts.events += static_cast<double>(kernel.queue().executed()) -
                     (pending_samples - samples_before);
    for (const auto& [slot, dev] : devices) {
      for (const pam::FcfsServer* s : {&dev->nic, &dev->cpu, &dev->pcie}) {
        counts.fcfs_jobs += static_cast<double>(s->jobs_completed());
        counts.max_queue = std::max(counts.max_queue, s->max_queue_seen());
      }
    }
    for (auto& sim : sims) {
      counts.chain_injected.push_back(static_cast<double>(sim->build_report().injected));
      counts.injected += counts.chain_injected.back();
      for (std::size_t i = 0; i < sim->chain().size(); ++i) {
        counts.visits[sim->chain().node(i).spec.type] +=
            static_cast<double>(sim->nf(i).counters().packets_in);
      }
      constexpr int kCalls = 200;
      const auto t0 = Clock::now();
      for (int c = 0; c < kCalls; ++c) {
        g_sink = sim->observed_ingress_rate(pam::SimTime::milliseconds(5.0)).value();
      }
      ingress_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      ingress_calls += kCalls;
    }
  };

  if (shared_kernel) {
    std::vector<const ReplayChain*> all;
    for (const auto& rc : chains) {
      all.push_back(&rc);
    }
    run_group(all);
  } else {
    for (const auto& rc : chains) {
      run_group({&rc});
    }
  }
  counts.mean_pending = pending_samples > 0 ? pending_sum / pending_samples : 0;
  counts.ingress_rate_us = ingress_calls > 0 ? ingress_ns / ingress_calls / 1e3 : 0;
  return counts;
}

/// 256 chain indices drawn in proportion to the packets each chain injected
/// in the replay, so size-dependent costs are weighted as in the run.
std::vector<std::size_t> weighted_picks(const std::vector<double>& weights) {
  double total = 0;
  for (const double w : weights) {
    total += w;
  }
  std::vector<std::size_t> picks;
  std::size_t c = 0;
  double cumulative = weights.empty() ? 0 : weights[0];
  for (std::size_t k = 0; k < 256; ++k) {
    const double target = (static_cast<double>(k) + 0.5) / 256.0 * total;
    while (c + 1 < weights.size() && cumulative < target) {
      cumulative += weights[++c];
    }
    picks.push_back(c);
  }
  return picks;
}

double event_ns(std::size_t depth, std::uint64_t seed) {
  pam::EventQueue queue;
  pam::Rng rng{seed};
  std::uint64_t sink = 0;
  const HopClosure action{&sink, nullptr, 1, 2};
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule_at(pam::SimTime::nanoseconds(static_cast<std::int64_t>(rng.bounded(10000))),
                      action);
  }
  return ns_per_op(200'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      (void)queue.run_one();
      queue.schedule_after(
          pam::SimTime::nanoseconds(1 + static_cast<std::int64_t>(rng.bounded(10000))),
          action);
    }
  });
}

/// Submit -> complete of one job with `depth` jobs waiting; at a full
/// queue every completion also meets one drop-tail rejection.
double fcfs_job_ns(std::size_t depth, std::size_t capacity) {
  pam::EventQueue queue;
  pam::FcfsServer server{queue, "replay", capacity};
  std::uint64_t done = 0;
  const HopClosure job{&done, nullptr, 1, 0};
  const bool full = depth >= capacity;
  depth = std::min(depth, capacity);
  return ns_per_op(100'000, [&](std::size_t ops) {
    const std::uint64_t target = done + ops;
    while (done < target) {
      (void)server.submit(pam::SimTime::nanoseconds(100), job);
      if (full && server.queue_length() == capacity) {
        (void)server.submit(pam::SimTime::nanoseconds(100), job);  // rejected
      }
      while (server.queue_length() >= depth && done < target) {
        (void)queue.run_one();
      }
    }
  });
}

double barrier_us(std::size_t threads, std::size_t shards) {
  pam::EpochExecutor executor{threads, shards};
  const std::function<void(std::size_t)> work = [](std::size_t) {};
  return ns_per_op(2'000, [&](std::size_t ops) {
           for (std::size_t i = 0; i < ops; ++i) {
             executor.run_epoch(work);
           }
         }) /
         1e3;
}

/// acquire -> fill -> send -> exchange -> release, batched 64 frames per
/// exchange like a busy epoch.
double frame_ns(std::size_t shards, const std::vector<std::size_t>& sizes) {
  pam::ShardFabric fabric{shards};
  const std::vector<std::uint8_t> wire(2048, 0x5a);
  std::size_t n = 0;
  const auto deliver = [&](std::size_t, std::size_t dst, pam::FabricFrame&& frame) {
    fabric.release(dst, std::move(frame));
  };
  return ns_per_op(64 * 1'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; i += 64) {
      for (std::size_t b = 0; b < 64; ++b, ++n) {
        const std::size_t dst = shards > 1 ? 1 + n % (shards - 1) : 0;
        pam::FabricFrame frame = fabric.acquire(0);
        frame.kind = pam::FabricFrame::Kind::kVisit;
        frame.chain = n % 16;
        frame.node = 2;
        const std::size_t size = sizes[n % sizes.size()];
        frame.bytes.assign(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(size));
        frame.packet_id = n;
        fabric.send(0, dst, std::move(frame));
      }
      fabric.exchange(deliver);
    }
  });
}

double pool_ns(const std::vector<std::size_t>& sizes, std::size_t in_flight) {
  pam::PacketPool pool{4096};
  std::vector<pam::PacketPtr> live(std::max<std::size_t>(in_flight, 1));
  std::size_t n = 0;
  return ns_per_op(500'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i, ++n) {
      live[n % live.size()] = pool.acquire(sizes[n % sizes.size()]);
    }
  });
}

std::vector<pam::PacketPtr> build_packets(pam::PacketPool& pool,
                                          const std::vector<std::size_t>& sizes,
                                          std::uint64_t seed) {
  pam::FlowGenerator flows{pam::FlowGeneratorConfig{}, seed};
  pam::Rng rng{seed};
  std::vector<pam::PacketPtr> packets;
  for (std::size_t i = 0; i < 256; ++i) {
    auto p = pool.acquire(sizes[i % sizes.size()]);
    pam::PacketBuilder{}
        .size(sizes[i % sizes.size()])
        .flow(flows.next(rng))
        .payload_seed(rng.next_u64())
        .build_into(*p);
    packets.push_back(std::move(p));
  }
  return packets;
}

double nf_process_ns(pam::NfType type, std::vector<pam::PacketPtr>& packets) {
  auto nf = pam::make_network_function(type, "replay",
                                       type == pam::NfType::kLogger ? 0.5 : 1.0);
  std::size_t n = 0;
  return ns_per_op(100'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i, ++n) {
      const auto at = pam::SimTime::nanoseconds(static_cast<std::int64_t>(n) * 100);
      (void)nf->handle(*packets[n % packets.size()], at);
    }
  });
}

/// One synthetic arrival as ChainSimulator makes it: rate lookup, size
/// sample, inter-arrival gap, flow pick and frame build, for the chain
/// `picks` names next.
double trafficgen_pkt_ns(const std::vector<ReplayChain>& chains,
                         const std::vector<std::size_t>& picks) {
  struct Source {
    const pam::TrafficSourceConfig* traffic;
    pam::FlowGenerator flows;
    pam::Rng rng;
    std::int64_t now = 0;
  };
  std::vector<Source> sources;
  for (const auto& rc : chains) {
    sources.push_back({&rc.traffic, pam::FlowGenerator{rc.traffic.flows, rc.traffic.seed},
                       pam::Rng{rc.traffic.seed}});
  }
  pam::PacketPool pool{4};
  auto packet = pool.acquire(1500);
  std::size_t n = 0;
  return ns_per_op(100'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i, ++n) {
      Source& src = sources[picks[n % picks.size()]];
      const pam::TrafficSourceConfig& traffic = *src.traffic;
      const pam::Gbps rate = traffic.rate.at(pam::SimTime::nanoseconds(src.now));
      const std::size_t size = traffic.sizes.sample(src.rng);
      const pam::SimTime mean = pam::serialization_delay(pam::Bytes{size}, rate);
      src.now += traffic.process == pam::ArrivalProcess::kPoisson
                     ? static_cast<std::int64_t>(
                           src.rng.exponential(static_cast<double>(mean.ns())))
                     : mean.ns();
      pam::PacketBuilder{}
          .size(size)
          .flow(src.flows.next(src.rng))
          .payload_seed(src.rng.next_u64())
          .build_into(*packet);
    }
  });
}

}  // namespace

std::uint64_t injected_packets(const pam::RunResult& result) {
  std::uint64_t n = 0;
  for (const auto& variant : result.variants) {
    for (const auto& run : variant.runs) {
      n += run.injected;
    }
  }
  if (result.timeline) {
    n += result.timeline->metrics.injected;
  }
  if (result.cluster) {
    n += result.cluster->fleet.injected;
  }
  return n;
}

LayerReport measure_layers(const pam::RunResult& result, Tracer& tracer, int run) {
  const ScopedSpan all{tracer, "layers", run};
  const pam::ScenarioSpec& spec = result.spec;
  const bool fleet = pam::is_fleet_kind(spec.kind);
  const std::size_t shards = fleet ? spec.cluster.shards : 1;
  const std::size_t threads = shards > 1 ? spec.cluster.threads : 1;
  const std::vector<ReplayChain> chains = replay_chains(result);
  const double run_pkts = static_cast<double>(std::max<std::uint64_t>(injected_packets(result), 1));

  ReplayCounts counts;
  {
    const ScopedSpan span{tracer, "layers.replay_sim", run};
    counts = replay(chains, fleet);
  }
  const double replay_pkts = std::max(counts.injected, 1.0);
  const std::vector<std::size_t> picks = weighted_picks(counts.chain_injected);
  std::vector<std::size_t> sizes;
  pam::Rng size_rng{spec.seed};
  for (const std::size_t c : picks) {
    sizes.push_back(chains[c].traffic.sizes.sample(size_rng));
  }

  LayerReport report;
  auto& m = report.metrics;
  auto timed = [&](const char* name, auto&& fn) {
    const ScopedSpan span{tracer, name, run};
    return fn();
  };

  const auto depth = static_cast<std::size_t>(counts.mean_pending + 0.5);
  const double ev_ns = timed("sim.event", [&] { return event_ns(depth, spec.seed); });
  double events_per_pkt = counts.events / replay_pkts;
  if (result.cluster && shards > 1) {
    double events = 0;
    for (const auto& shard : result.cluster->shard_totals) {
      events += static_cast<double>(shard.events_executed);
    }
    events_per_pkt = events / run_pkts;
  }
  const pam::Calibration calibration = pam::Calibration::defaults();
  const double job_ns = timed("sim.fcfs", [&] {
    return fcfs_job_ns(counts.max_queue, calibration.queue_capacity_packets);
  });
  const double jobs_per_pkt = counts.fcfs_jobs / replay_pkts;
  const double bar_us = timed("sim.barrier", [&] { return barrier_us(threads, shards); });
  const double epochs = result.cluster ? static_cast<double>(result.cluster->epochs) : 0.0;
  const double fr_ns = timed("sim.frame", [&] { return frame_ns(shards, sizes); });
  const double frames_per_pkt =
      result.cluster ? static_cast<double>(result.cluster->cross_rack_frames) / run_pkts : 0.0;
  const double pl_ns = timed("packet.pool", [&] { return pool_ns(sizes, 64); });

  std::printf("stated depths: EventQueue %zu pending events, FCFS queue %zu jobs "
              "(from a %.0f ms replay of %zu chains); %zu shards x %zu threads\n",
              depth, counts.max_queue, kReplayMs, chains.size(), shards, threads);

  m.push_back({"sim.event_ns", ev_ns, "ns"});
  m.push_back({"sim.events_per_pkt", events_per_pkt, "count"});
  m.push_back({"sim.fcfs_job_ns", job_ns, "ns"});
  m.push_back({"sim.fcfs_jobs_per_pkt", jobs_per_pkt, "count"});
  m.push_back({"sim.barrier_us", bar_us, "us"});
  m.push_back({"sim.epochs", epochs, "count"});
  m.push_back({"sim.frame_ns", fr_ns, "ns"});
  m.push_back({"sim.frames_per_pkt", frames_per_pkt, "count"});
  m.push_back({"packet.pool_ns", pl_ns, "ns"});

  report.ledger.push_back({"trafficgen", 0, 1});  // filled below
  report.ledger.push_back({"packet.pool", pl_ns, 1});
  report.ledger.push_back({"sim.event (non-FCFS)", ev_ns,
                           std::max(0.0, events_per_pkt - jobs_per_pkt)});
  report.ledger.push_back({"sim.fcfs", job_ns, jobs_per_pkt});

  {
    const ScopedSpan span{tracer, "nf", run};
    pam::PacketPool pool{512};
    auto packets = build_packets(pool, sizes, spec.seed);
    double visits = 0;
    for (const pam::NfType type : kNfTypes) {
      const std::string name{pam::to_string(type)};
      const ScopedSpan nf_span{tracer, "nf." + name, run};
      const double ns = nf_process_ns(type, packets);
      const double per_pkt = counts.visits[type] / replay_pkts;
      visits += per_pkt;
      m.push_back({"nf." + name + ".process_ns", ns, "ns"});
      report.ledger.push_back({"nf." + name, ns, per_pkt});
    }
    m.push_back({"nf.visits_per_pkt", visits, "count"});
  }

  const double gen_ns = timed("trafficgen", [&] { return trafficgen_pkt_ns(chains, picks); });
  report.ledger.front().ns_per_op = gen_ns;
  m.push_back({"trafficgen.pkt_ns", gen_ns, "ns"});

  const pam::Server server = pam::Server::paper_testbed();
  const pam::ChainAnalyzer analyzer{server};
  const double analyze_ns = timed("chain.analyze", [&] {
    std::size_t n = 0;
    return ns_per_op(20'000, [&](std::size_t ops) {
      for (std::size_t i = 0; i < ops; ++i, ++n) {
        const ReplayChain& rc = chains[n % chains.size()];
        g_sink = analyzer.utilization(rc.chain, pam::Gbps{rc.plan_gbps}).smartnic;
      }
    });
  });
  const double plan_us = timed("core.plan", [&] {
    const pam::PamPolicy policy;
    std::size_t n = 0;
    return ns_per_op(2'000, [&](std::size_t ops) {
             for (std::size_t i = 0; i < ops; ++i, ++n) {
               const ReplayChain& rc = chains[n % chains.size()];
               g_sink = policy.plan(rc.chain, analyzer, pam::Gbps{rc.plan_gbps}).feasible;
             }
           }) /
           1e3;
  });
  m.push_back({"chain.analyze_ns", analyze_ns, "ns"});
  m.push_back({"core.plan_us", plan_us, "us"});
  m.push_back({"control.ingress_rate_us", counts.ingress_rate_us, "us"});

  // Control-loop work counts.  A rack controller sweeps every chain once
  // per period from first_check to the horizon; a sharded run has one per
  // rack.
  double ticks = 0;
  double control_events = 0;
  double moves = 0;
  if (result.cluster) {
    const pam::ClusterResult& c = *result.cluster;
    if (c.rebalance && spec.cluster.first_check_ms <= spec.duration_ms) {
      ticks = static_cast<double>(shards) *
              (std::floor((spec.duration_ms - spec.cluster.first_check_ms) /
                          spec.cluster.period_ms) +
               1);
    }
    control_events = static_cast<double>(c.events.size());
    moves = static_cast<double>(c.migrations_executed + c.scale_out_moves +
                                c.evacuations + c.cross_rack_moves);
  }
  m.push_back({"control.ticks", ticks, "count"});
  m.push_back({"control.events", control_events, "count"});
  m.push_back({"migration.moves", moves, "count"});

  double crossings = 0;
  double drops = 0;
  if (result.cluster) {
    crossings = result.cluster->fleet.mean_crossings_per_packet;
    drops = static_cast<double>(result.cluster->fleet.dropped_total());
  }
  double injected = 0;
  for (const auto& variant : result.variants) {
    for (const auto& r : variant.runs) {
      crossings += r.mean_crossings_per_packet * static_cast<double>(r.injected);
      injected += static_cast<double>(r.injected);
      drops += static_cast<double>(r.dropped_total());
    }
  }
  if (injected > 0) {
    crossings /= injected;
  }
  m.push_back({"device.crossings_per_pkt", crossings, "count"});
  m.push_back({"device.drop_share", drops / run_pkts, "ratio"});

  report.ledger.push_back({"sim.fabric frame", fr_ns, frames_per_pkt});
  report.ledger.push_back({"sim.epoch barrier", bar_us * 1e3, epochs / run_pkts});
  const double managed = fleet ? static_cast<double>(spec.chains.size()) / static_cast<double>(shards) : 0;
  report.ledger.push_back({"control sense (per chain tick)",
                           analyze_ns + counts.ingress_rate_us * 1e3,
                           ticks * managed / run_pkts});
  report.ledger.push_back({"core.plan (per move)", plan_us * 1e3, moves / run_pkts});
  return report;
}

}  // namespace perfbench
