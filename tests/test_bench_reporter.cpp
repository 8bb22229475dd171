// Contract tests for the benchreport library: the pam-bench/v1 JSON shape
// (field order, escaping, determinism) that scripts/bench_schema.py and the
// CI bench-trajectory job validate against, plus the unit-normalization and
// quick-mode helpers.  If these fail, every BENCH_*.json downstream is
// suspect.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "benchreport/bench_reporter.hpp"

namespace pam {
namespace {

std::string emit(const BenchReporter& reporter) {
  std::ostringstream out;
  reporter.write_json(out);
  return out.str();
}

BenchReporter sample_reporter() {
  BenchReporter reporter{"bench_unit_test"};
  reporter.add_case("alpha")
      .param("chain_len", std::uint64_t{8})
      .param("rate", 2.5)
      .metric("ns_per_plan", MetricKind::kLatency, 1234.5, "ns", 2000)
      .metric("plans_per_s", MetricKind::kThroughput, 8.1e5, "/s");
  reporter.add_case("beta").metric("drops", MetricKind::kCount, 0.0, "packets");
  return reporter;
}

TEST(BenchReporter, EmissionIsDeterministic) {
  const BenchReporter reporter = sample_reporter();
  EXPECT_EQ(emit(reporter), emit(reporter));

  // A second reporter built the same way produces the same bytes: the
  // trajectory diff must never churn on rebuild alone.
  EXPECT_EQ(emit(sample_reporter()), emit(reporter));
}

TEST(BenchReporter, HeaderAndRecordFieldOrderIsDocumented) {
  const std::string json = emit(sample_reporter());

  // docs/BENCHMARKS.md promises this exact key order; downstream tools key
  // on names, but stable order keeps baseline diffs reviewable.
  const char* ordered_keys[] = {
      "\"schema\"", "\"bench\"",  "\"git_describe\"", "\"build_type\"",
      "\"compiler\"", "\"build_flags\"", "\"quick\"", "\"nproc\"",
      "\"records\"",
      // first record
      "\"case\"", "\"params\"", "\"metric\"", "\"kind\"", "\"value\"",
      "\"unit\"", "\"repeats\""};
  std::size_t pos = 0;
  for (const char* key : ordered_keys) {
    const std::size_t at = json.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key << " missing after offset " << pos
                                     << " in:\n" << json;
    pos = at;
  }

  EXPECT_NE(json.find("\"schema\": \"pam-bench/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"count\""), std::string::npos);
  // Numeric params are normalized to strings at param() time.
  EXPECT_NE(json.find("\"chain_len\": \"8\""), std::string::npos);
  EXPECT_NE(json.find("\"rate\": \"2.5\""), std::string::npos);
  // Default repeats is 1.
  EXPECT_NE(json.find("\"repeats\": 1"), std::string::npos);
}

TEST(BenchReporter, EscapesStringsInParamsAndNames) {
  BenchReporter reporter{"bench_unit_test"};
  reporter.add_case("quo\"te")
      .param("path", "a\\b\nc")
      .metric("m", MetricKind::kInfo, 1.0, "x");
  const std::string json = emit(reporter);
  EXPECT_NE(json.find("\"quo\\\"te\""), std::string::npos);
  EXPECT_NE(json.find("\"a\\\\b\\nc\""), std::string::npos);
}

TEST(BenchReporter, MetricKindNames) {
  EXPECT_EQ(to_string(MetricKind::kThroughput), "throughput");
  EXPECT_EQ(to_string(MetricKind::kLatency), "latency");
  EXPECT_EQ(to_string(MetricKind::kCount), "count");
  EXPECT_EQ(to_string(MetricKind::kRatio), "ratio");
  EXPECT_EQ(to_string(MetricKind::kInfo), "info");
}

TEST(BenchReporter, TimeUnitNormalization) {
  EXPECT_DOUBLE_EQ(time_to_ns(5.0, "ns"), 5.0);
  EXPECT_DOUBLE_EQ(time_to_ns(5.0, "us"), 5.0e3);
  EXPECT_DOUBLE_EQ(time_to_ns(5.0, "ms"), 5.0e6);
  EXPECT_DOUBLE_EQ(time_to_ns(5.0, "s"), 5.0e9);
  EXPECT_LT(time_to_ns(5.0, "fortnights"), 0.0);
}

TEST(BenchReporter, RateUnitNormalization) {
  EXPECT_DOUBLE_EQ(rate_to_per_s(3.0, "/s"), 3.0);
  EXPECT_DOUBLE_EQ(rate_to_per_s(3.0, "k/s"), 3.0e3);
  EXPECT_DOUBLE_EQ(rate_to_per_s(3.0, "M/s"), 3.0e6);
  EXPECT_DOUBLE_EQ(rate_to_per_s(3.0, "G/s"), 3.0e9);
  EXPECT_LT(rate_to_per_s(3.0, "Gbps"), 0.0);
}

TEST(BenchReporter, QuickModeFollowsEnvironment) {
  ::unsetenv("PAM_BENCH_QUICK");
  EXPECT_FALSE(bench_quick_mode());
  ::setenv("PAM_BENCH_QUICK", "1", 1);
  EXPECT_TRUE(bench_quick_mode());
  ::setenv("PAM_BENCH_QUICK", "0", 1);
  EXPECT_FALSE(bench_quick_mode());
  ::unsetenv("PAM_BENCH_QUICK");
}

TEST(BenchReporter, DisabledWithoutFlagOrEnv) {
  ::unsetenv("PAM_BENCH_JSON");
  BenchReporter by_env{"b"};
  EXPECT_FALSE(by_env.enabled());
  EXPECT_EQ(by_env.flush(), 0);

  const char* argv[] = {"bench", "--verbose"};
  BenchReporter by_args{"b", 2, const_cast<char**>(argv)};
  EXPECT_FALSE(by_args.enabled());
}

TEST(BenchReporter, EnabledByFlagWithPath) {
  const char* argv[] = {"bench", "--bench-json=/tmp/x.json"};
  BenchReporter reporter{"b", 2, const_cast<char**>(argv)};
  EXPECT_TRUE(reporter.enabled());
  EXPECT_EQ(reporter.output_path(), "/tmp/x.json");

  const char* argv_stdout[] = {"bench", "--bench-json"};
  BenchReporter to_stdout{"b", 2, const_cast<char**>(argv_stdout)};
  EXPECT_TRUE(to_stdout.enabled());
  EXPECT_EQ(to_stdout.output_path(), "-");
}

TEST(BenchReporter, TimeRunsCollectsStats) {
  int calls = 0;
  const TimingStats stats =
      time_runs(BenchTiming{/*warmup_runs=*/2, /*repeat_runs=*/4},
                [&] { ++calls; });
  EXPECT_EQ(calls, 6);  // 2 warmup + 4 timed
  EXPECT_EQ(stats.repeats, 4);
  EXPECT_GE(stats.best_ns, 0.0);
  EXPECT_LE(stats.best_ns, stats.mean_ns);
  EXPECT_LE(stats.mean_ns, stats.worst_ns);
}

}  // namespace
}  // namespace pam
