// Datacenter scaling: the sharded, epoch-synchronized kernel against the
// single shared-kernel baseline on an identical 64-server workload.
//
// Every server carries one moderate split chain (SmartNIC firewall + CPU
// load balancer at 1.2 Gbps) — the same per-slot load bench_cluster_scale
// uses — run two ways:
//
//   - single kernel: one rack of 64 servers, one event queue, one pool,
//     stepped in 100 us epochs — the path of a `shards = 1` scenario
//     (this is the baseline row);
//   - sharded: DatacenterSimulator with 4 shards x 16 servers advancing in
//     lock-step epochs, at 1, 2 and 4 worker threads.
//
// events/s (sum of per-shard executed events over wall time) is the gated
// metric of every row; speedup_vs_single is recorded as an ungated ratio
// because it is machine-shaped: with >= 4 cores the 4-thread row scales
// with the thread count, while on a single core only the architectural
// gains remain (smaller per-shard event heaps, epoch-batched cache
// locality).  The determinism contract — identical reports for any thread
// count — is asserted here too, on the injected/delivered totals.
//
//   $ ./build/bench/bench_datacenter_scale

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "benchreport/bench_reporter.hpp"
#include "chain/chain_builder.hpp"
#include "common/strings.hpp"
#include "sim/datacenter_simulator.hpp"

namespace {

using namespace pam;

constexpr std::size_t kServers = 64;
constexpr std::size_t kShards = 4;

ServiceChain slot_chain(std::size_t slot) {
  return ChainBuilder{format("tenant-%zu", slot)}
      .add(NfType::kFirewall, format("fw%zu", slot), Location::kSmartNic)
      .add(NfType::kLoadBalancer, format("lb%zu", slot), Location::kCpu)
      .build();
}

TrafficSourceConfig slot_traffic(std::size_t slot) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(Gbps{1.2});
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = 42 + slot;
  return cfg;
}

struct Row {
  double wall_ms = 0.0;
  double events = 0.0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
};

/// Runs the workload on `shards` racks advanced by `threads` workers.
Row run_workload(std::size_t shards, std::size_t threads, SimTime duration,
                 SimTime warmup) {
  DatacenterSimulator::Options opt;
  opt.shards = shards;
  opt.servers_total = kServers;
  DatacenterSimulator dc{opt};
  for (std::size_t s = 0; s < kServers; ++s) {
    (void)dc.add_chain(slot_chain(s), slot_traffic(s), s);
  }
  const auto t0 = std::chrono::steady_clock::now();
  dc.run(duration, warmup, threads);
  const DatacenterReport report = dc.report();
  const auto t1 = std::chrono::steady_clock::now();
  Row row;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const ShardSummary& shard : report.shards) {
    row.events += static_cast<double>(shard.events_executed);
  }
  row.injected = report.fleet.injected;
  row.delivered = report.fleet.delivered;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter{"bench_datacenter_scale", argc, argv};
  const SimTime duration = SimTime::milliseconds(bench_quick_mode() ? 10 : 30);
  const SimTime warmup = SimTime::milliseconds(bench_quick_mode() ? 2 : 5);

  std::printf(
      "=== datacenter scaling: %zu servers @1.2 Gbps x 512B per slot, %.0f ms "
      "===\n\n",
      kServers, duration.ms());
  std::printf("%-22s | %9s | %10s | %9s | %8s\n", "configuration", "injected",
              "wall (ms)", "events/s", "speedup");
  std::printf(
      "-----------------------+-----------+------------+-----------+---------\n");

  // Single shared kernel: the one-rack baseline.
  const Row baseline = run_workload(1, 1, duration, warmup);
  const double base_events_per_s =
      baseline.wall_ms > 0.0 ? baseline.events / baseline.wall_ms * 1e3 : 0.0;
  std::printf("%-22s | %9llu | %10.1f | %8.2fM | %7s\n", "single kernel",
              static_cast<unsigned long long>(baseline.injected),
              baseline.wall_ms, base_events_per_s / 1e6, "1.00x");
  reporter.add_case("datacenter_scale")
      .param("shards", std::uint64_t{1})
      .param("threads", std::uint64_t{1})
      .metric("events_per_s", MetricKind::kThroughput, base_events_per_s, "/s")
      .metric("wall_ms", MetricKind::kInfo, baseline.wall_ms, "ms");

  // Sharded kernel, identical workload, one row per thread count.
  Row first_sharded;
  for (const std::size_t threads : {1, 2, 4}) {
    const Row row = run_workload(kShards, threads, duration, warmup);

    // The determinism contract, cheaply: every thread count must produce
    // the same totals as the first sharded row (the full bit-identity gate
    // lives in tests/test_shard_determinism.cpp).
    if (threads == 1) {
      first_sharded = row;
    } else if (row.injected != first_sharded.injected ||
               row.delivered != first_sharded.delivered) {
      std::fprintf(stderr,
                   "FATAL: sharded run at %zu thread(s) diverged from the "
                   "1-thread totals\n",
                   threads);
      return EXIT_FAILURE;
    }

    const double events_per_s =
        row.wall_ms > 0.0 ? row.events / row.wall_ms * 1e3 : 0.0;
    const double speedup =
        base_events_per_s > 0.0 ? events_per_s / base_events_per_s : 0.0;
    const std::string label = format("%zu shards, %zu thread(s)", kShards, threads);
    std::printf("%-22s | %9llu | %10.1f | %8.2fM | %6.2fx\n", label.c_str(),
                static_cast<unsigned long long>(row.injected), row.wall_ms,
                events_per_s / 1e6, speedup);
    reporter.add_case("datacenter_scale")
        .param("shards", static_cast<std::uint64_t>(kShards))
        .param("threads", static_cast<std::uint64_t>(threads))
        .metric("events_per_s", MetricKind::kThroughput, events_per_s, "/s")
        .metric("speedup_vs_single", MetricKind::kRatio, speedup, "x")
        .metric("wall_ms", MetricKind::kInfo, row.wall_ms, "ms");
  }

  std::printf(
      "\n(identical workload per row; the sharded rows advance %zu isolated\n"
      " kernels in lock-step epochs — speedup tracks the core count on real\n"
      " hardware and per-shard heap/cache wins on a single core)\n",
      kShards);
  return reporter.flush();
}
