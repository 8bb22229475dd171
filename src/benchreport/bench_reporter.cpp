#include "benchreport/bench_reporter.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/json_writer.hpp"
#include "common/strings.hpp"

// Build provenance, baked in at configure time by src/benchreport/
// CMakeLists.txt so every emitted section records which build produced it.
#ifndef PAM_BENCH_GIT_DESCRIBE
#define PAM_BENCH_GIT_DESCRIBE "unknown"
#endif
#ifndef PAM_BENCH_BUILD_TYPE
#define PAM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PAM_BENCH_COMPILER
#define PAM_BENCH_COMPILER "unknown"
#endif
#ifndef PAM_BENCH_CXX_FLAGS
#define PAM_BENCH_CXX_FLAGS ""
#endif

namespace pam {

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kThroughput: return "throughput";
    case MetricKind::kLatency: return "latency";
    case MetricKind::kCount: return "count";
    case MetricKind::kRatio: return "ratio";
    case MetricKind::kInfo: return "info";
  }
  return "info";
}

BenchCase& BenchCase::param(std::string key, std::string value) {
  params_.emplace_back(std::move(key), std::move(value));
  return *this;
}

BenchCase& BenchCase::param(std::string key, double value) {
  return param(std::move(key), format("%g", value));
}

BenchCase& BenchCase::param(std::string key, std::uint64_t value) {
  return param(std::move(key),
               format("%llu", static_cast<unsigned long long>(value)));
}

BenchCase& BenchCase::metric(std::string name, MetricKind kind, double value,
                             std::string unit, std::uint64_t repeats) {
  metrics_.push_back(
      BenchMetric{std::move(name), kind, value, std::move(unit), repeats});
  return *this;
}

BenchReporter::BenchReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  if (const char* env = std::getenv("PAM_BENCH_JSON");
      env != nullptr && env[0] != '\0') {
    enabled_ = true;
    path_ = env;
  }
}

BenchReporter::BenchReporter(std::string bench_name, int argc, char** argv)
    : BenchReporter(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--bench-json") {
      enabled_ = true;
      path_ = "-";
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      enabled_ = true;
      path_ = std::string{arg.substr(13)};
      if (path_.empty()) {
        path_ = "-";
      }
    }
  }
}

BenchCase& BenchReporter::add_case(std::string name) {
  cases_.emplace_back();
  cases_.back().name_ = std::move(name);
  return cases_.back();
}

void BenchReporter::write_json(std::ostream& out) const {
  JsonWriter w{out};
  w.begin_object();
  w.key("schema"); w.value("pam-bench/v1");
  w.key("bench"); w.value(bench_name_);
  w.key("git_describe"); w.value(PAM_BENCH_GIT_DESCRIBE);
  w.key("build_type"); w.value(PAM_BENCH_BUILD_TYPE);
  w.key("compiler"); w.value(PAM_BENCH_COMPILER);
  w.key("build_flags"); w.value(PAM_BENCH_CXX_FLAGS);
  w.key("quick"); w.value(bench_quick_mode());
  w.key("nproc");
  // pam-lint: allow(D006) reads the processor count for the header; starts no thread
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("records");
  w.begin_array();
  for (const auto& c : cases_) {
    for (const auto& m : c.metrics_) {
      // One flat record per metric, self-contained after suite merging:
      // (bench, case, params, metric) is the cross-trajectory identity.
      w.begin_object();
      w.key("bench"); w.value(bench_name_);
      w.key("case"); w.value(c.name_);
      w.key("params");
      w.begin_object();
      for (const auto& [k, v] : c.params_) {
        w.key(k); w.value(v);
      }
      w.end_object();
      w.key("metric"); w.value(m.name);
      w.key("kind"); w.value(to_string(m.kind));
      w.key("value"); w.value(m.value);
      w.key("unit"); w.value(m.unit);
      w.key("repeats"); w.value(m.repeats);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
}

int BenchReporter::flush() const {
  if (!enabled_) {
    return 0;
  }
  if (path_ == "-") {
    write_json(std::cout);
    return std::cout.good() ? 0 : 1;
  }
  std::ofstream file{path_};
  if (!file) {
    std::fprintf(stderr, "benchreport: cannot write '%s'\n", path_.c_str());
    return 1;
  }
  write_json(file);
  return file.good() ? 0 : 1;
}

TimingStats time_runs(const BenchTiming& timing, const std::function<void()>& fn) {
  for (int i = 0; i < timing.warmup_runs; ++i) {
    fn();
  }
  TimingStats stats;
  double total = 0.0;
  for (int i = 0; i < timing.repeat_runs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (i == 0 || ns < stats.best_ns) {
      stats.best_ns = ns;
    }
    if (ns > stats.worst_ns) {
      stats.worst_ns = ns;
    }
    total += ns;
    ++stats.repeats;
  }
  if (stats.repeats > 0) {
    stats.mean_ns = total / static_cast<double>(stats.repeats);
  }
  return stats;
}

bool bench_quick_mode() noexcept {
  const char* env = std::getenv("PAM_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

double time_to_ns(double value, std::string_view unit) noexcept {
  if (unit == "ns") return value;
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  return -1.0;
}

double rate_to_per_s(double value, std::string_view unit) noexcept {
  if (unit == "/s") return value;
  if (unit == "k/s") return value * 1e3;
  if (unit == "M/s") return value * 1e6;
  if (unit == "G/s") return value * 1e9;
  return -1.0;
}

}  // namespace pam
