// Cluster scaling curve: wall-clock cost and fleet throughput of one rack
// (a one-rack DatacenterSimulator, the path of every `shards = 1`
// scenario) as it grows from 1 to 16 servers.
//
// Every slot carries one moderate split chain (SmartNIC firewall + CPU
// load balancer at 1.2 Gbps), so fleet goodput should scale linearly with
// the server count while everything advances on ONE event queue and ONE
// packet pool — the quantity this bench tracks is how much wall time each
// additional server costs (events/s is the single-threaded DES budget).
// With --bench-json[=FILE] (or PAM_BENCH_JSON) every rack size becomes a
// pam-bench/v1 trajectory record (docs/BENCHMARKS.md); events/s is the
// gated metric.  PAM_BENCH_QUICK=1 shrinks the simulated window only.
//
//   $ ./build/bench/bench_cluster_scale

#include <chrono>
#include <cstdio>

#include "benchreport/bench_reporter.hpp"
#include "chain/chain_builder.hpp"
#include "common/strings.hpp"
#include "sim/datacenter_simulator.hpp"

namespace {

using namespace pam;

ServiceChain slot_chain(std::size_t slot) {
  return ChainBuilder{format("tenant-%zu", slot)}
      .add(NfType::kFirewall, format("fw%zu", slot), Location::kSmartNic)
      .add(NfType::kLoadBalancer, format("lb%zu", slot), Location::kCpu)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter{"bench_cluster_scale", argc, argv};
  const SimTime duration = SimTime::milliseconds(bench_quick_mode() ? 10 : 30);
  const SimTime warmup = SimTime::milliseconds(bench_quick_mode() ? 2 : 5);

  std::printf("=== cluster scaling @1.2 Gbps x 512B per server, %.0f ms ===\n\n",
              duration.ms());
  std::printf("%7s | %9s | %10s | %9s | %10s | %9s\n", "servers", "injected",
              "goodput", "fleet p99", "wall (ms)", "events/s");
  std::printf("--------+-----------+------------+-----------+------------+----------\n");

  for (const std::size_t servers : {1, 2, 4, 8, 16}) {
    DatacenterSimulator::Options options;
    options.shards = 1;
    options.servers_total = servers;
    DatacenterSimulator dc{options};
    for (std::size_t s = 0; s < servers; ++s) {
      TrafficSourceConfig cfg;
      cfg.rate = RateProfile::constant(Gbps{1.2});
      cfg.sizes = PacketSizeDistribution::fixed(512);
      cfg.seed = 42 + s;
      (void)dc.add_chain(slot_chain(s), std::move(cfg), s);
    }

    const auto t0 = std::chrono::steady_clock::now();
    dc.run(duration, warmup, /*threads=*/1);
    const DatacenterReport run = dc.report();
    const auto t1 = std::chrono::steady_clock::now();
    const SimReport& report = run.fleet;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double events = static_cast<double>(run.shards[0].events_executed);
    const double events_per_s = wall_ms > 0.0 ? events / wall_ms * 1e3 : 0.0;

    std::printf("%7zu | %9llu | %8.2f G | %6.0f us | %10.1f | %8.2fM\n",
                servers, static_cast<unsigned long long>(report.injected),
                report.egress_goodput.value(),
                report.latency.quantile(0.99).us(), wall_ms,
                events_per_s / 1e6);
    reporter.add_case("rack_scale")
        .param("servers", static_cast<std::uint64_t>(servers))
        .metric("events_per_s", MetricKind::kThroughput, events_per_s, "/s")
        .metric("fleet_goodput_gbps", MetricKind::kThroughput,
                report.egress_goodput.value(), "Gbps")
        .metric("fleet_p99_latency_us", MetricKind::kLatency,
                report.latency.quantile(0.99).us(), "us")
        .metric("wall_ms", MetricKind::kInfo, wall_ms, "ms");
  }

  std::printf("\n(one shared event queue + packet pool, stepped in 100 us epochs;\n"
              " cost per server is the slope — the single-threaded DES budget\n"
              " for fleet scenarios)\n");
  return reporter.flush();
}
