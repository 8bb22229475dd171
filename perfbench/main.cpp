// pam_perfbench — the repository benchmark program.
//
//   pam_perfbench --workload NAME [--seed N] --seconds S --trace 0|1
//                 [--trace-out FILE] [--describe TEXT]
//
// Without --seed the workload's source preset seed is used.
//
// One process, one run at a time (a closed loop of one); inside a run the
// simulated traffic is open loop at the spec's offered rate.  Every run is
// ScenarioSpec::parse -> ScenarioRunner::run -> write_metrics_json ->
// check_invariants on generated scenario text, and fails when the
// invariants are not clean or its report digest differs from the reference
// digest of this (workload, seed).
//
// --trace 0 prints the end-to-end metrics (sim_pps, setup_s, peak_rss_mb);
// --trace 1 prints the per-layer metrics, the cost ledger and writes the
// spans to --trace-out.  The last line of stdout is the result JSON.
// README.md names every metric.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_hook.hpp"
#include "experiment/invariants.hpp"
#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_runner.hpp"
#include "experiment/scenario_spec.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::AllocCounts;
using perfbench::Metric;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (the "inclusive" method) of a sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Host memory high-water mark of this process image, in MB.  VmHWM, not
/// getrusage's ru_maxrss, which keeps the launching process's peak across
/// exec.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// One parse -> run -> report -> check cycle and what it cost.
struct Outcome {
  bool ok = false;
  std::string error;  ///< why the run failed (empty when ok)
  pam::RunResult result;
  std::uint64_t digest = 0;
  std::uint64_t injected = 0;
  double parse_s = 0.0;
  double run_s = 0.0;
  double report_s = 0.0;
  double check_s = 0.0;
  AllocCounts allocs;  ///< inside the run call (only when counted)
};

Outcome run_once(const std::string& text, std::size_t threads_override,
                 Tracer& tracer, int run_id, bool count_allocs) {
  Outcome out;
  ScopedSpan whole{tracer, "experiment.run", run_id};
  try {
    auto t0 = Clock::now();
    auto spec = [&] {
      ScopedSpan span{tracer, "experiment.parse", run_id};
      return pam::ScenarioSpec::parse(text, "perfbench");
    }();
    out.parse_s = seconds_since(t0);
    if (!spec) {
      out.error = "parse: " + spec.error().message;
      return out;
    }
    t0 = Clock::now();
    auto result = [&] {
      ScopedSpan span{tracer, "experiment.runner", run_id};
      if (!count_allocs) {
        return pam::ScenarioRunner{}.run(spec.value(), threads_override);
      }
      const perfbench::AllocWindow window;
      auto r = pam::ScenarioRunner{}.run(spec.value(), threads_override);
      out.allocs = window.counts();
      return r;
    }();
    out.run_s = seconds_since(t0);
    if (!result) {
      out.error = "run: " + result.error().message;
      return out;
    }
    out.result = std::move(result).value();
    out.injected = perfbench::injected_packets(out.result);

    t0 = Clock::now();
    {
      ScopedSpan span{tracer, "experiment.report", run_id};
      std::ostringstream json;
      pam::write_metrics_json(out.result, json);
      out.digest = fnv1a(json.view());
    }
    out.report_s = seconds_since(t0);

    t0 = Clock::now();
    pam::InvariantReport audit;
    {
      ScopedSpan span{tracer, "experiment.check", run_id};
      audit = pam::check_invariants(out.result);
    }
    out.check_s = seconds_since(t0);
    if (!audit.ok()) {
      out.error = "invariants: " + audit.describe();
      return out;
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = std::string{"exception: "} + e.what();
  }
  return out;
}

/// Counts attempted and failed runs.  The first run of each spec text fixes
/// that text's reference digest; every later run must reproduce it.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void admit(const Outcome& o, const char* what, std::optional<std::uint64_t>& reference) {
    ++attempted;
    std::string why = o.error;
    if (why.empty() && reference && o.digest != *reference) {
      why = "digest " + hex(o.digest) + " != reference " + hex(*reference);
    }
    if (!why.empty()) {
      ++failed;
      std::printf("FAILED %s run: %s\n", what, why.c_str());
    } else if (!reference) {
      reference = o.digest;
    }
  }
};

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string describe = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::string_view{val} == "1";
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else if (key == "--describe") {
      args.describe = val;
    } else {
      return false;
    }
  }
  const perfbench::Workload* workload = perfbench::find_workload(args.workload);
  if (workload != nullptr && !args.seed) {
    args.seed = workload->default_seed;
  }
  return argc % 2 == 1 && args.seconds > 0.0 && workload != nullptr;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang";
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc";
#else
constexpr const char* kCompiler = "c++";
#endif

void print_provenance(const Args& args, std::size_t threads) {
  const std::string_view build_type = PERFBENCH_BUILD_TYPE;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(*args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%u sim_threads=%zu build_type=%s compiler=\"%s %s\" "
              "flags=\"%s\" git_describe=%s\n",
              std::thread::hardware_concurrency(), threads,
              std::string{build_type}.c_str(), kCompiler, __VERSION__, PERFBENCH_CXX_FLAGS,
              args.describe.c_str());
  if (build_type != "Release") {
    std::printf("# WARNING: build type '%s' is not Release; do not compare these "
                "figures with Release results\n",
                std::string{build_type}.c_str());
  }
}

void write_spans(const Tracer& tracer, const std::string& path, const Args& args) {
  std::ofstream out{path};
  if (!out) {
    std::printf("# could not write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << *args.seed
      << ", \"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  std::printf("# spans: %zu written to %s\n", spans.size(), path.c_str());
}

/// Total and self time (duration minus the child spans' durations) per
/// span name, summed over all spans of that name.
void print_span_summary(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  struct Row {
    std::string name;
    double total_ms = 0.0;
    double self_ms = 0.0;
    int count = 0;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const Row& r) { return r.name == spans[i].name; });
    if (it == rows.end()) {
      rows.push_back(Row{spans[i].name});
      it = rows.end() - 1;
    }
    it->total_ms += dur / 1e6;
    it->self_ms += (dur - child_ns[i]) / 1e6;
    ++it->count;
  }
  std::printf("\n%-34s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& r : rows) {
    std::printf("%-34s %6d %12.3f %12.3f\n", r.name.c_str(), r.count, r.total_ms,
                r.self_ms);
  }
}

void print_result(bool correct, const Gate& gate, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(gate.attempted);
  line += ", \"failed\": " + std::to_string(gate.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pam_perfbench --workload NAME [--seed N] --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--describe TEXT]\nworkloads:");
    for (const auto& w : perfbench::workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const perfbench::Workload& workload = *perfbench::find_workload(args.workload);
  const std::string text = workload.spec_text(*args.seed, false);
  const std::string setup_text = workload.spec_text(*args.seed, true);

  Tracer off{false};
  Gate gate;
  std::optional<std::uint64_t> reference;
  std::optional<std::uint64_t> setup_reference;

  // Reference run: warms caches and lazy set-up, and fixes the digest every
  // later run of this (workload, seed) must reproduce.
  Outcome ref = run_once(text, 0, off, 0, false);
  gate.admit(ref, "reference", reference);
  if (!ref.ok) {
    print_result(false, gate, {});
    return 0;
  }
  const pam::ClusterSpec& cluster = ref.result.spec.cluster;
  const bool sharded = cluster.shards > 1;
  print_provenance(args, sharded ? cluster.threads : 1);
  std::printf("reference digest %s (workload %s, seed %llu, %llu packets)\n",
              hex(ref.digest).c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(*args.seed),
              static_cast<unsigned long long>(ref.injected));

  // Sharded runs must be bit-identical at any thread count.
  bool threads_agree = true;
  if (sharded) {
    const Outcome t1 = run_once(text, 1, off, 0, false);
    gate.admit(t1, "threads=1", reference);
    threads_agree = t1.ok && t1.digest == ref.digest;
    std::printf("threads=1 digest %s, threads=%zu digest %s: %s\n",
                hex(t1.digest).c_str(), cluster.threads, hex(ref.digest).c_str(),
                threads_agree ? "equal" : "DIFFERENT");
  }

  std::vector<Metric> metrics;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(args.seconds));

  if (!args.trace) {
    // Measured window: untraced runs back to back until --seconds elapse
    // (at least three).  After each one, set-ups (the same spec with the
    // horizon cut to the minimum) run until they took a tenth of that run's
    // time, so the set-up median samples the whole window, as the runs do.
    std::vector<double> pps;
    std::vector<double> setup_s;
    std::uint64_t packets = 0;
    double run_s = 0.0;
    for (int runs = 0; runs < 3 || Clock::now() < deadline; ++runs) {
      const Outcome o = run_once(text, 0, off, 0, false);
      gate.admit(o, "measured", reference);
      if (o.ok) {
        pps.push_back(static_cast<double>(o.injected) / o.run_s);
        packets += o.injected;
        run_s += o.run_s;
      }
      for (double spent = 0.0; spent == 0.0 || spent < 0.1 * o.run_s;) {
        const Outcome setup = run_once(setup_text, 0, off, 0, false);
        gate.admit(setup, "setup", setup_reference);
        setup_s.push_back(setup.parse_s + setup.run_s);
        spent += setup.parse_s + setup.run_s;
      }
    }
    // sim_pps is the 90th percentile of the per-run rates.  Shared hosts
    // switch between a fast and a slow phase (about 1.5x apart) for seconds
    // at a time, and the share of slow runs in a window varies from window to
    // window; the mean and the median follow that share, a high percentile
    // stays in the fast phase as long as a few runs fall in it.
    const double sim_pps = quantile(pps, 0.9);
    std::printf("sim_pps %.0f (p90 of %zu runs); %llu packets in %.3f s of run, mean "
                "%.0f; per run median %.0f, q1 %.0f, q3 %.0f\n",
                sim_pps, pps.size(), static_cast<unsigned long long>(packets), run_s,
                run_s > 0.0 ? static_cast<double>(packets) / run_s : 0.0, median(pps),
                quantile(pps, 0.25), quantile(pps, 0.75));
    std::printf("sim_pps per run:");
    for (const double v : pps) {
      std::printf(" %.0f", v);
    }
    std::printf("\n");
    // setup_s is the 10th percentile of the set-up times, for the same
    // reason: it stays in the fast phase.
    std::printf("setup_s over %zu set-ups: p10 %.6f, median %.6f, q1 %.6f, q3 %.6f\n",
                setup_s.size(), quantile(setup_s, 0.1), median(setup_s),
                quantile(setup_s, 0.25), quantile(setup_s, 0.75));
    metrics.push_back({"sim_pps", sim_pps, "1/s"});
    metrics.push_back({"setup_s", quantile(setup_s, 0.1), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    // Traced: alternate untraced and traced runs until --seconds elapse (at
    // least two of each).  Traced runs record spans and count allocations.
    Tracer tracer{true};
    std::vector<double> plain_pps;
    std::vector<double> traced_pps;
    std::vector<Outcome> traced;
    int run_id = 0;
    while (traced.size() < 2 || Clock::now() < deadline) {
      const Outcome plain = run_once(text, 0, off, 0, false);
      gate.admit(plain, "untraced", reference);
      if (plain.ok) {
        plain_pps.push_back(static_cast<double>(plain.injected) / plain.run_s);
      }
      Outcome t = run_once(text, 0, tracer, run_id++, true);
      gate.admit(t, "traced", reference);
      if (t.ok) {
        traced_pps.push_back(static_cast<double>(t.injected) / t.run_s);
      }
      t.result = {};  // keep the counts, not the report
      traced.push_back(std::move(t));
    }
    bool allocs_repeat = true;
    for (const auto& t : traced) {
      allocs_repeat = allocs_repeat && t.allocs.calls == traced[0].allocs.calls &&
                      t.allocs.bytes == traced[0].allocs.bytes;
    }
    std::printf("allocations inside run: %llu calls, %llu bytes; repeat exactly "
                "over %zu traced runs: %s\n",
                static_cast<unsigned long long>(traced[0].allocs.calls),
                static_cast<unsigned long long>(traced[0].allocs.bytes), traced.size(),
                allocs_repeat ? "yes" : "NO");

    const perfbench::LayerReport layers = measure_layers(ref.result, tracer, run_id);

    std::vector<double> parse_ms;
    std::vector<double> report_ms;
    std::vector<double> check_ms;
    for (const auto& t : traced) {
      parse_ms.push_back(t.parse_s * 1e3);
      report_ms.push_back(t.report_s * 1e3);
      check_ms.push_back(t.check_s * 1e3);
    }
    const double pkts = static_cast<double>(ref.injected);
    metrics.push_back({"experiment.parse_ms", median(parse_ms), "ms"});
    metrics.push_back({"experiment.report_ms", median(report_ms), "ms"});
    metrics.push_back({"experiment.check_ms", median(check_ms), "ms"});
    metrics.push_back({"experiment.allocs_per_pkt",
                       static_cast<double>(traced[0].allocs.calls) / pkts, "count"});
    metrics.push_back({"experiment.alloc_bytes_per_pkt",
                       static_cast<double>(traced[0].allocs.bytes) / pkts, "B"});
    metrics.insert(metrics.end(), layers.metrics.begin(), layers.metrics.end());

    // Ledger: measured ns per simulated packet (untraced runs) against
    // Σ layer ns/op × ops/pkt.
    const double measured_ns = 1e9 / median(plain_pps);
    double explained_ns = 0.0;
    std::printf("\ncost ledger (%s, seed %llu): ns per simulated packet\n",
                args.workload.c_str(), static_cast<unsigned long long>(*args.seed));
    std::printf("%-26s %14s %14s %14s\n", "layer", "ns/op", "ops/pkt", "ns/pkt");
    for (const auto& row : layers.ledger) {
      const double ns = row.ns_per_op * row.ops_per_pkt;
      explained_ns += ns;
      std::printf("%-26s %14.2f %14.4f %14.2f\n", row.layer.c_str(), row.ns_per_op,
                  row.ops_per_pkt, ns);
    }
    const double unexplained = (measured_ns - explained_ns) / measured_ns;
    std::printf("%-26s %14s %14s %14.2f\n", "sum of layers", "", "", explained_ns);
    std::printf("%-26s %14s %14s %14.2f\n", "measured (untraced)", "", "", measured_ns);
    std::printf("%-26s %14s %14s %14.2f  (%.1f%% of measured)\n", "unexplained", "",
                "", measured_ns - explained_ns, 100.0 * unexplained);
    const double overhead = median(plain_pps) / median(traced_pps) - 1.0;
    metrics.push_back({"ledger.unexplained", unexplained, "ratio"});
    metrics.push_back({"trace.overhead", overhead, "ratio"});

    print_span_summary(tracer);
    if (!args.trace_out.empty()) {
      write_spans(tracer, args.trace_out, args);
    }
  }

  const bool correct = gate.failed == 0 && threads_agree;
  const double failed_share =
      static_cast<double>(gate.failed) / static_cast<double>(gate.attempted);
  std::printf("runs attempted %llu, failed %llu, failed_share %g\n",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed), failed_share);
  if (args.trace) {
    metrics.push_back({"failed_share", failed_share, "ratio"});
  }
  print_result(correct, gate, metrics);
  return 0;
}
