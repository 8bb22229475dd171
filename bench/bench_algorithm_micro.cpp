// Microbenchmarks of the control-plane hot paths: the PAM decision
// procedure vs chain length, border identification, the analytic model,
// and — for context — data-plane primitives (AC matching, consistent
// hashing, header parsing, packet build and payload fill).  Self-timing (steady clock, warmup + repeats
// via benchreport's time_runs; best-of-repeats reported to shed scheduler
// noise) so the bench builds everywhere without Google Benchmark.
//
// The paper's controller runs the selection algorithm on every periodic
// load query, so `pam_plan/ns_per_plan` IS the control-loop decision
// latency the CI trajectory gates on.  With --bench-json[=FILE] (or
// PAM_BENCH_JSON) every case becomes a pam-bench/v1 record
// (docs/BENCHMARKS.md).  PAM_BENCH_QUICK=1 shrinks iteration counts only.
//
//   $ ./build/bench/bench_algorithm_micro

#include <cstdio>

#include "benchreport/bench_reporter.hpp"
#include "chain/border.hpp"
#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "common/rng.hpp"
#include "core/naive_policy.hpp"
#include "core/pam_policy.hpp"
#include "nf/dpi.hpp"
#include "nf/load_balancer.hpp"
#include "packet/packet_builder.hpp"

namespace {

using namespace pam;
using namespace pam::literals;

// Optimizer sink: accumulating into a volatile keeps every measured loop
// observable without a DoNotOptimize dependency.
volatile std::uint64_t g_sink = 0;

void sink(std::uint64_t v) { g_sink = g_sink + v; }

/// A chain of `n` NFs, mostly on the SmartNIC, overloaded at 2 Gbps.
ServiceChain synthetic_chain(std::size_t n) {
  Rng rng{n * 2654435761ull};
  const NfType types[] = {NfType::kFirewall, NfType::kLogger, NfType::kMonitor,
                          NfType::kLoadBalancer, NfType::kNat, NfType::kDpi,
                          NfType::kRateLimiter, NfType::kEncryptor};
  ChainBuilder builder{"synthetic"};
  builder.egress(Attachment::kHost);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(types[rng.bounded(8)], "nf" + std::to_string(i),
                rng.chance(0.75) ? Location::kSmartNic : Location::kCpu);
  }
  return builder.build();
}

/// Times `iters` executions of `op` (warmup + repeats), records
/// `metric_name` = best ns/op under `case_name`/`params`, and prints one
/// human-readable line.
template <typename Op>
void micro(BenchReporter& reporter, const char* case_name,
           std::vector<std::pair<std::string, std::string>> params,
           const char* metric_name, std::size_t iters, Op&& op) {
  const BenchTiming timing{/*warmup_runs=*/1,
                           /*repeat_runs=*/bench_quick_mode() ? 3 : 5};
  const TimingStats stats = time_runs(timing, [&] {
    for (std::size_t i = 0; i < iters; ++i) {
      op(i);
    }
  });
  const double ns_per_op = stats.best_ns / static_cast<double>(iters);
  std::string label = case_name;
  auto& c = reporter.add_case(case_name);
  for (auto& [k, v] : params) {
    label += "/" + v;
    c.param(k, v);
  }
  c.metric(metric_name, MetricKind::kLatency, ns_per_op, "ns",
           static_cast<std::uint64_t>(iters) *
               static_cast<std::uint64_t>(stats.repeats));
  std::printf("%-28s %12.1f ns/op  (best of %llu x %zu iters)\n", label.c_str(),
              ns_per_op, static_cast<unsigned long long>(stats.repeats), iters);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter{"bench_algorithm_micro", argc, argv};
  const std::size_t scale = bench_quick_mode() ? 4 : 1;

  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  std::printf("=== control-plane + data-plane microbenchmarks ===\n\n");

  // The control-loop decision latency: one full PAM plan per periodic
  // load query, vs chain length.
  const PamPolicy pam_policy;
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const auto chain = synthetic_chain(n);
    micro(reporter, "pam_plan", {{"chain_len", std::to_string(n)}},
          "ns_per_plan", 2000 / scale, [&](std::size_t) {
            sink(pam_policy.plan(chain, analyzer, 2.0_gbps).steps.size());
          });
  }

  const NaiveBottleneckPolicy naive_policy;
  for (const std::size_t n : {8u, 32u}) {
    const auto chain = synthetic_chain(n);
    micro(reporter, "naive_plan", {{"chain_len", std::to_string(n)}},
          "ns_per_plan", 2000 / scale, [&](std::size_t) {
            sink(naive_policy.plan(chain, analyzer, 2.0_gbps).steps.size());
          });
  }

  for (const std::size_t n : {8u, 64u}) {
    const auto chain = synthetic_chain(n);
    micro(reporter, "find_borders", {{"chain_len", std::to_string(n)}},
          "ns_per_call", 20000 / scale,
          [&](std::size_t) { sink(find_borders(chain).left.size()); });
  }

  for (const std::size_t n : {8u, 64u}) {
    const auto chain = synthetic_chain(n);
    micro(reporter, "analyzer_utilization", {{"chain_len", std::to_string(n)}},
          "ns_per_call", 20000 / scale, [&](std::size_t) {
            sink(analyzer.utilization(chain, 2.0_gbps).smartnic >= 1.0 ? 1 : 0);
          });
  }

  {
    Packet pkt;
    PacketBuilder{}
        .size(512)
        .flow(FiveTuple{0x0a000001, 0xc0000202, 40000, 443, IpProto::kTcp})
        .build_into(pkt);
    // The mutable data() drops the cached flow key, so each call parses.
    micro(reporter, "five_tuple_parse", {}, "ns_per_parse", 1000000 / scale,
          [&](std::size_t) {
            sink(pkt.data().size());
            const auto t = pkt.five_tuple();
            sink(t ? t->src_port : 0);
          });
    // What every NF after the builder pays: a cache hit.
    micro(reporter, "five_tuple_cached", {}, "ns_per_lookup", 1000000 / scale,
          [&](std::size_t) {
            const auto t = pkt.five_tuple();
            sink(t ? t->src_port : 0);
          });
  }

  // The traffic generator's per-packet build leaves the payload pending;
  // the first payload reader (DPI, Encryptor) pays the fill.
  for (const std::size_t bytes : {64u, 512u, 1500u}) {
    Packet pkt;
    PacketBuilder builder;
    builder.size(bytes).flow(FiveTuple{0x0a000001, 0xc0000202, 40000, 443, IpProto::kUdp});
    micro(reporter, "packet_build", {{"bytes", std::to_string(bytes)}},
          "ns_per_build", 1000000 / scale, [&](std::size_t i) {
            builder.payload_seed(i);
            builder.build_into(pkt);
            sink(pkt.size());
          });
    micro(reporter, "payload_fill", {{"bytes", std::to_string(bytes)}},
          "ns_per_fill", 20000 / scale, [&](std::size_t i) {
            pkt.defer_payload(i);
            sink(pkt.payload().back());
          });
  }

  {
    AhoCorasick ac;
    ac.add_pattern("MALWARE");
    ac.add_pattern("EXPLOIT");
    ac.add_pattern("BEACON-X9");
    ac.compile();
    for (const std::size_t bytes : {64u, 512u, 1500u}) {
      Packet pkt;
      PacketBuilder{}
          .size(bytes)
          .flow(FiveTuple{1, 2, 3, 4, IpProto::kUdp})
          .payload_seed(5)
          .build_into(pkt);
      micro(reporter, "aho_corasick_scan", {{"bytes", std::to_string(bytes)}},
            "ns_per_scan", 100000 / scale,
            [&](std::size_t) { sink(ac.contains_any(pkt.payload()) ? 1 : 0); });
    }
  }

  {
    ConsistentHashRing ring{64};
    for (std::uint32_t b = 1; b <= 8; ++b) {
      ring.add(Backend{0xc6336400u | b, 8080, "b"});
    }
    FiveTuple t{0x0a000001, 0xc0000202, 1000, 443, IpProto::kTcp};
    micro(reporter, "consistent_hash_pick", {}, "ns_per_pick", 500000 / scale,
          [&](std::size_t i) {
            t.src_port = static_cast<std::uint16_t>(i * 40503u);
            sink(ring.pick(t).port);
          });
  }

  std::printf("\n(pam_plan bounds how fine-grained the periodic control loop "
              "can be)\n");
  return reporter.flush();
}
