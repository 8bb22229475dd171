// Load sweep: latency and goodput vs offered rate for the three Figure-1
// layouts — the underlying curves whose endpoints the poster's Figure 2
// bars summarise.  Shows the crossover structure: below ~1.5 Gbps all three
// configurations carry the load (Original wins on latency because the
// Logger still enjoys SmartNIC-cheap processing... actually ties with PAM);
// past Original's knee only the migrated layouts keep up, and PAM tracks
// ~65-90 us under Naive at every operating point.
//
// Doubles as the end-to-end datapath budget bench: the DES wall-clock over
// the whole sweep yields ns/packet and packets/s, and a tight PacketPool
// recycle loop isolates the acquire fast path, and an EventQueue loop times
// schedule + pop at the datapath's queue shape.  With --bench-json[=FILE]
// (or PAM_BENCH_JSON) everything lands as pam-bench/v1 trajectory records
// (docs/BENCHMARKS.md).  PAM_BENCH_QUICK=1 shrinks simulated durations and
// iteration counts without changing the record key set.
//
//   $ ./build/bench/bench_load_sweep

#include <chrono>
#include <cstdio>

#include "benchreport/bench_reporter.hpp"
#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "core/naive_policy.hpp"
#include "core/pam_policy.hpp"
#include "sim/datacenter_simulator.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace pam;

struct Point {
  Gbps goodput;
  SimTime mean_latency;
  std::uint64_t drops;
};

// Wall-clock accounting across all DES runs: the sweep recycles hundreds of
// thousands of pooled packets, so it doubles as the regression bench for
// PacketPool::acquire's header-only reset fast path.
std::uint64_t g_total_packets = 0;
double g_total_wall_ms = 0.0;

/// One run of `chain` on a one-rack, one-slot datacenter, as the scenario
/// runner makes it for a compare point.
Point measure(const ServiceChain& chain, Gbps rate, SimTime duration,
              SimTime warmup) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(rate);
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = 5150;
  DatacenterSimulator dc{DatacenterSimulator::Options{}};  // one rack, one slot
  dc.add_chain(chain, cfg, 0);
  const auto t0 = std::chrono::steady_clock::now();
  dc.run(duration, warmup, /*threads=*/1);
  const SimReport report = dc.chain_sim(0).build_report();
  const auto t1 = std::chrono::steady_clock::now();
  g_total_wall_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
  g_total_packets += report.injected;
  return Point{report.egress_goodput, report.latency.mean(), report.dropped_total()};
}

/// Keeps an EventQueue at the datapath's shape: kind 0 records ride the
/// fixed pipeline delays (delay line `node`), kind 1 records stand for FCFS
/// completions and reschedule through the heap after a varying service.
struct PipelineSink final : EventSink {
  static constexpr SimTime kDelays[] = {SimTime::microseconds(55.0),
                                        SimTime::microseconds(70.0),
                                        SimTime::microseconds(32.0)};
  EventQueue* queue = nullptr;

  void on_event(const EventRecord& ev) override {
    EventRecord next = ev;
    if (ev.kind == 0) {
      queue->schedule_delayed(kDelays[ev.node], next);
      return;
    }
    next.a = next.a * 6364136223846793005ull + 1442695040888963407ull;  // LCG
    queue->schedule_after(SimTime::nanoseconds(500 + static_cast<std::int64_t>(
                                                         (next.a >> 33) % 1500)),
                          next);
  }
};

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter{"bench_load_sweep", argc, argv};
  // Quick mode shortens the simulated window only; the swept rates and the
  // record key set are identical, so trajectories stay comparable.
  const SimTime duration =
      SimTime::milliseconds(bench_quick_mode() ? 20 : 60);
  const SimTime warmup = SimTime::milliseconds(bench_quick_mode() ? 4 : 12);

  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const ServiceChain original = paper_figure1_chain();
  const Gbps overload = paper_overload_rate();
  const ServiceChain after_naive =
      NaiveBottleneckPolicy{}.plan(original, analyzer, overload).apply_to(original);
  const ServiceChain after_pam =
      PamPolicy{}.plan(original, analyzer, overload).apply_to(original);

  const struct {
    const char* label;
    const ServiceChain* chain;
  } layouts[] = {{"original", &original}, {"naive", &after_naive}, {"pam", &after_pam}};

  std::printf("=== load sweep @512B: goodput (Gbps) / mean latency (us) ===\n\n");
  std::printf("%-8s | %-22s | %-22s | %-22s\n", "offered", "Original", "Naive", "PAM");
  std::printf("---------+------------------------+------------------------+-----------------------\n");
  for (const double rate : {0.4, 0.8, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4}) {
    Point points[3];
    for (std::size_t l = 0; l < 3; ++l) {
      points[l] = measure(*layouts[l].chain, Gbps{rate}, duration, warmup);
      reporter.add_case("sweep")
          .param("layout", layouts[l].label)
          .param("offered_gbps", rate)
          .metric("goodput_gbps", MetricKind::kThroughput,
                  points[l].goodput.value(), "Gbps")
          .metric("mean_latency_us", MetricKind::kLatency,
                  points[l].mean_latency.us(), "us")
          .metric("drops", MetricKind::kCount,
                  static_cast<double>(points[l].drops), "packets");
    }
    std::printf("%5.1f G  | %5.2f / %8.1f%s | %5.2f / %8.1f%s | %5.2f / %8.1f%s\n",
                rate,
                points[0].goodput.value(), points[0].mean_latency.us(),
                points[0].drops ? " *" : "  ",
                points[1].goodput.value(), points[1].mean_latency.us(),
                points[1].drops ? " *" : "  ",
                points[2].goodput.value(), points[2].mean_latency.us(),
                points[2].drops ? " *" : "  ");
  }
  std::printf("\n('*' marks operating points with drops; latency there measures a\n"
              " saturated drop-tail queue, not the chain)\n");
  std::printf("\nknees (analytic): original %.2f Gbps, naive %.2f, PAM %.2f\n",
              analyzer.max_sustainable_rate(original).value(),
              analyzer.max_sustainable_rate(after_naive).value(),
              analyzer.max_sustainable_rate(after_pam).value());
  const double kpkt_per_s = g_total_wall_ms > 0.0
                                ? static_cast<double>(g_total_packets) / g_total_wall_ms
                                : 0.0;
  const double ns_per_packet = g_total_packets > 0
                                   ? g_total_wall_ms * 1e6 /
                                         static_cast<double>(g_total_packets)
                                   : 0.0;
  std::printf("\nsimulated %llu packets in %.0f ms wall (%.0f kpkt/s, %.0f ns/packet)\n",
              static_cast<unsigned long long>(g_total_packets), g_total_wall_ms,
              kpkt_per_s, ns_per_packet);
  reporter.add_case("des_wall")
      .metric("packets_per_s", MetricKind::kThroughput, kpkt_per_s * 1e3, "/s")
      .metric("ns_per_packet", MetricKind::kLatency, ns_per_packet, "ns");

  // Pool-recycle microbenchmark: isolates PacketPool::acquire's header-only
  // reset (54B touched per recycle instead of a full-frame memset).  MTU
  // frames make the difference visible; the DES above amortises it into
  // noise, a tight RX loop does not.
  {
    PacketPool pool{1};
    const std::size_t kIters = bench_quick_mode() ? 250'000 : 2'000'000;
    constexpr std::size_t kFrame = 1500;
    { auto prime = pool.acquire(kFrame); }
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t live = 0;
    for (std::size_t i = 0; i < kIters; ++i) {
      auto handle = pool.acquire(kFrame);
      live += handle ? 1 : 0;  // keep the loop observable
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(kIters);
    std::printf("pool recycle @%zuB: %.1f ns/acquire over %zu iterations "
                "(%zu ok)\n", kFrame, ns, kIters, live);
    reporter.add_case("pool_recycle")
        .param("frame_bytes", std::uint64_t{kFrame})
        .metric("ns_per_acquire", MetricKind::kLatency, ns, "ns", kIters);
  }

  // EventQueue pipeline microbenchmark: ~800 packets in flight on the three
  // fixed pipeline delays (NF overhead on SmartNIC and CPU, PCIe fixed
  // cost) plus a few heap-scheduled completions, in steady state.  One
  // iteration is one pop, its dispatch and the schedule it makes.
  {
    constexpr std::size_t kInFlight = 800;
    constexpr std::size_t kHeapEvents = 8;
    const std::size_t kIters = bench_quick_mode() ? 500'000 : 4'000'000;
    EventQueue queue;
    PipelineSink sink;
    sink.queue = &queue;
    EventRecord rec;
    rec.sink = &sink;
    for (std::size_t i = 0; i < kInFlight + kHeapEvents; ++i) {
      rec.kind = i < kInFlight ? 0 : 1;
      rec.node = static_cast<std::uint32_t>(i % std::size(PipelineSink::kDelays));
      rec.a = i;
      queue.schedule_at(SimTime::nanoseconds(static_cast<std::int64_t>(i) * 70), rec);
    }
    for (std::size_t i = 0; i < kInFlight * 4; ++i) {  // warm up: reach steady state
      queue.run_one();
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      queue.run_one();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(kIters);
    std::printf("event queue pipeline (%zu in flight, %zu delays, %zu heap): "
                "%.1f ns/event over %zu events\n",
                kInFlight, std::size(PipelineSink::kDelays), kHeapEvents, ns, kIters);
    reporter.add_case("event_queue_pipeline")
        .param("in_flight", std::uint64_t{kInFlight})
        .param("heap_events", std::uint64_t{kHeapEvents})
        .metric("ns_per_event", MetricKind::kLatency, ns, "ns", kIters);
  }
  return reporter.flush();
}
