// Scenario-spec parser tests: grammar coverage, strict error reporting
// (malformed keys, missing required fields, duplicate sections/keys), and
// the round-trip property over every bundled preset.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "experiment/scenario_library.hpp"
#include "experiment/scenario_spec.hpp"

namespace pam {
namespace {

constexpr const char* kMinimalCompare = R"(
[scenario]
name = mini
kind = compare
chain = wire | S:Firewall C:LoadBalancer | host

[variant]
policy = pam
)";

TEST(ScenarioSpec, ParsesMinimalCompare) {
  const auto result = ScenarioSpec::parse(kMinimalCompare);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.kind, ScenarioKind::kCompare);
  ASSERT_EQ(spec.variants.size(), 1u);
  EXPECT_EQ(spec.variants[0].policy, (PolicyConfig{"pam", {}}));
  // Label defaults to the policy's text form.
  EXPECT_EQ(spec.variants[0].label, "pam");
  EXPECT_EQ(spec.variants[0].measure_rate.kind, MeasureRate::Kind::kPlanRate);
}

TEST(ScenarioSpec, ParsesAllScalarFields) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = full
kind = compare
description = the description
note = first note
note = second note
chain = wire | S:Monitor | wire
plan_rate_gbps = 3.5
measure = analytic
duration_ms = 25
warmup_ms = 5
seed = 77

[traffic]
arrival = poisson
sizes = uniform 100 900

[variant]
label = capped
policy = naive-min
measure_rate = cap x 1.25
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.description, "the description");
  ASSERT_EQ(spec.notes.size(), 2u);
  EXPECT_EQ(spec.notes[1], "second note");
  EXPECT_DOUBLE_EQ(spec.plan_rate_gbps, 3.5);
  EXPECT_EQ(spec.measure, MeasureMode::kAnalytic);
  EXPECT_DOUBLE_EQ(spec.duration_ms, 25.0);
  EXPECT_DOUBLE_EQ(spec.warmup_ms, 5.0);
  EXPECT_EQ(spec.seed, 77u);
  EXPECT_EQ(spec.traffic.arrival, ArrivalProcess::kPoisson);
  EXPECT_EQ(spec.traffic.sizes.kind, SizeSpec::Kind::kUniform);
  EXPECT_EQ(spec.traffic.sizes.lo, 100u);
  EXPECT_EQ(spec.traffic.sizes.hi, 900u);
  EXPECT_EQ(spec.variants[0].measure_rate.kind, MeasureRate::Kind::kCapTimes);
  EXPECT_DOUBLE_EQ(spec.variants[0].measure_rate.value, 1.25);
}

// --- error reporting ------------------------------------------------------

void expect_error(const std::string& text, const std::string& fragment) {
  const auto result = ScenarioSpec::parse(text, "err.scn");
  ASSERT_FALSE(result.has_value()) << "expected error containing '" << fragment
                                   << "'";
  EXPECT_NE(result.error().what().find(fragment), std::string::npos)
      << "error was: " << result.error().what();
}

TEST(ScenarioSpecErrors, MalformedKeyValueLine) {
  expect_error("[scenario]\nname mini\n", "expected 'key = value'");
}

TEST(ScenarioSpecErrors, KeyBeforeAnySection) {
  expect_error("name = mini\n", "before any [section]");
}

TEST(ScenarioSpecErrors, MalformedSectionHeader) {
  expect_error("[scenario\nname = x\n", "malformed section header");
}

TEST(ScenarioSpecErrors, UnknownSection) {
  expect_error("[scenario]\nname = x\nkind = compare\n[bogus]\nk = v\n",
               "unknown section [bogus]");
}

TEST(ScenarioSpecErrors, UnknownKey) {
  expect_error("[scenario]\nname = x\nkind = compare\nbogus_key = 1\n",
               "unknown key 'bogus_key'");
}

TEST(ScenarioSpecErrors, DuplicateScenarioSection) {
  expect_error("[scenario]\nname = x\nkind = compare\n[scenario]\nname = y\n",
               "duplicate [scenario] section");
}

TEST(ScenarioSpecErrors, DuplicateKeyInSection) {
  expect_error("[scenario]\nname = x\nname = y\nkind = compare\n",
               "duplicate key 'name'");
}

TEST(ScenarioSpecErrors, ErrorsCarryOriginAndLine) {
  const auto result =
      ScenarioSpec::parse("[scenario]\nname = x\nbad key line\n", "my.scn");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("my.scn:3:"), std::string::npos)
      << result.error().what();
}

TEST(ScenarioSpecErrors, MissingScenarioSection) {
  expect_error("[traffic]\narrival = cbr\n", "missing required [scenario]");
}

TEST(ScenarioSpecErrors, MissingName) {
  expect_error("[scenario]\nkind = compare\nchain = wire | S:Monitor | wire\n",
               "requires a 'name'");
}

TEST(ScenarioSpecErrors, MissingKind) {
  expect_error("[scenario]\nname = x\n", "requires a 'kind'");
}

TEST(ScenarioSpecErrors, UnknownKind) {
  expect_error("[scenario]\nname = x\nkind = frobnicate\n",
               "key 'kind': expected compare|capacity|");
}

TEST(ScenarioSpecErrors, CompareNeedsChain) {
  expect_error("[scenario]\nname = x\nkind = compare\n[variant]\npolicy = pam\n",
               "requires [scenario] 'chain'");
}

TEST(ScenarioSpecErrors, CompareNeedsVariant) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n",
      "at least one [variant]");
}

TEST(ScenarioSpecErrors, InvalidChainSpecIsRejected) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | X:Nope | host\n"
      "[variant]\npolicy = pam\n",
      "invalid chain spec");
}

TEST(ScenarioSpecErrors, BadNumber) {
  expect_error("[scenario]\nname = x\nkind = compare\nplan_rate_gbps = fast\n",
               "expected a number");
}

TEST(ScenarioSpecErrors, NegativeUnsignedValuesRejected) {
  // strtoull would silently wrap these to huge values; the parser must not.
  expect_error("[scenario]\nname = x\nkind = compare\nseed = -5\n",
               "expected an unsigned integer");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nsizes = fixed -64\n[variant]\npolicy = pam\n",
      "key 'sizes': expected 'fixed N'");
}

TEST(ScenarioSpecErrors, SearchItersBounded) {
  const std::string prefix =
      "[scenario]\nname = x\nkind = capacity\n[capacity]\nnfs = Monitor\n";
  expect_error(prefix + "search_iters = 1e10\n", "integer in [1, 64]");
  expect_error(prefix + "search_iters = 0\n", "integer in [1, 64]");
  expect_error(prefix + "search_iters = -3\n", "integer in [1, 64]");
}

TEST(ScenarioSpecErrors, SweepSizesOnlyForCompare) {
  expect_error(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nsizes = sweep\nrate = constant 1\n",
      "sizes = sweep is only valid for kind = compare");
}

TEST(ScenarioSpecErrors, BadPolicy) {
  // Strict: an unknown policy is an error listing the registered names,
  // never a silent fallback to NoMigrationPolicy.
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = magic\n",
      "unknown policy 'magic'");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = magic\n",
      "registered: naive, naive-min, none, pam, scale-in");
}

TEST(ScenarioSpecErrors, BadPolicyParameter) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam:frobnicate=2\n",
      "unknown parameter 'frobnicate'");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam:utilization_limit=high\n",
      "expected key=NUMBER");
}

TEST(ScenarioSpecErrors, ControllerPolicyKeysMovedToPolicySection) {
  expect_error(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = constant 1\n[controller]\npolicy = pam\n",
      "unknown key 'policy' in [controller]");
}

TEST(ScenarioSpecErrors, PolicySectionOnlyForTimelineAndCluster) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam\n[policy]\nname = pam\n",
      "[policy] is only valid for kind = timeline|cluster|churn|failure|hostile");
}

TEST(ScenarioSpec, PolicySectionParsesParamsRegardlessOfKeyOrder) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = timeline
chain = wire | S:Monitor C:Logger | host

[traffic]
rate = constant 1

[policy]
param.utilization_limit = 0.9
name = pam
scale_in = scale-in
scale_in.param.smartnic_ceiling = 0.7
param.max_migrations = 8
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.policy.name, "pam");
  EXPECT_DOUBLE_EQ(spec.policy.get("utilization_limit", -1.0), 0.9);
  EXPECT_DOUBLE_EQ(spec.policy.get("max_migrations", -1.0), 8.0);
  EXPECT_EQ(spec.scale_in.name, "scale-in");
  EXPECT_DOUBLE_EQ(spec.scale_in.get("smartnic_ceiling", -1.0), 0.7);
}

TEST(ScenarioSpecRoundTrip, PolicyParamsRoundTripThroughText) {
  const auto first = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = timeline
chain = wire | S:Monitor C:Logger | host

[traffic]
rate = constant 1

[policy]
name = pam:utilization_limit=0.85
param.max_migrations = 4
scale_in = scale-in:smartnic_ceiling=0.65
)");
  ASSERT_TRUE(first.has_value()) << first.error().what();
  // Inline and param.* spellings merge into one ordered parameter list…
  EXPECT_DOUBLE_EQ(first.value().policy.get("utilization_limit", -1.0), 0.85);
  EXPECT_DOUBLE_EQ(first.value().policy.get("max_migrations", -1.0), 4.0);
  // …and the canonical rendering parses back to an equal spec.
  const auto second = ScenarioSpec::parse(first.value().to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value()) << first.value().to_text();
}

TEST(ScenarioSpec, ClusterChainPolicyOverrides) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = c
kind = cluster

[policy]
name = pam

[chain]
name = hot
spec = wire | S:Firewall | wire
policy = naive:utilization_limit=0.8

[chain]
name = calm
spec = wire | S:Monitor | wire

[cluster]
servers = 2
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.chains[0].policy.name, "naive");
  EXPECT_DOUBLE_EQ(spec.chains[0].policy.get("utilization_limit", -1.0), 0.8);
  EXPECT_TRUE(spec.chains[1].policy.empty());  // inherits [policy]
  // Round-trips with the override intact.
  const auto second = ScenarioSpec::parse(spec.to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(spec == second.value());
}

TEST(ScenarioSpecErrors, ClusterScaleInRejected) {
  // The fleet controller has no calm direction; silently accepting the key
  // would break the strict-parsing contract.
  expect_error(
      "[scenario]\nname = c\nkind = cluster\n"
      "[policy]\nname = pam\nscale_in = scale-in\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
      "[cluster]\nservers = 2\n",
      "[policy] 'scale_in' is only valid for kind = timeline");
  // Gating checks that the key is given, not what it holds: the default
  // value is rejected too.
  expect_error(
      "[scenario]\nname = c\nkind = cluster\n"
      "[policy]\nname = pam\nscale_in = none\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
      "[cluster]\nservers = 2\n",
      "err.scn:6: [policy] 'scale_in' is only valid for kind = timeline");
}

TEST(ScenarioSpecErrors, ChainPolicyOnlyForCluster) {
  expect_error(
      "[scenario]\nname = x\nkind = deployment\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\npolicy = pam\n",
      "[chain] 'policy' is only valid for kind = cluster");
}

TEST(ScenarioSpecErrors, BadSizes) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nsizes = jumbo\n[variant]\npolicy = pam\n",
      "key 'sizes': expected");
}

TEST(ScenarioSpecErrors, BadMeasureRate) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam\nmeasure_rate = cap times 2\n",
      "key 'measure_rate': expected");
}

TEST(ScenarioSpecErrors, TimelineNeedsRate) {
  expect_error(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n",
      "kind = timeline requires [traffic] 'rate'");
}

TEST(ScenarioSpecErrors, RateOnlyForTimeline) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = constant 2\n[variant]\npolicy = pam\n",
      "[traffic] 'rate' is only valid for kind = timeline");
}

TEST(ScenarioSpecErrors, CapacityNeedsNfs) {
  expect_error("[scenario]\nname = x\nkind = capacity\n",
               "kind = capacity requires [capacity] 'nfs'");
}

TEST(ScenarioSpecErrors, SectionKindMismatch) {
  expect_error(
      "[scenario]\nname = x\nkind = capacity\n[capacity]\nnfs = Monitor\n"
      "[variant]\npolicy = pam\n",
      "[variant] is only valid for kind = compare");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam\n[controller]\nperiod_ms = 5\n",
      "[controller] is only valid for kind = timeline");
  // [controller] and [cluster] set the same ClusterSpec knobs, but each
  // stays the section of its own kinds.
  expect_error(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = constant 1\n[cluster]\nperiod_ms = 5\n",
      "[cluster] is only valid for kind = cluster");
  expect_error(
      "[scenario]\nname = x\nkind = cluster\n"
      "[chain]\nname = a\nspec = wire | S:Monitor | wire\n"
      "[cluster]\nservers = 1\n[controller]\nperiod_ms = 5\n",
      "[controller] is only valid for kind = timeline");
}

TEST(ScenarioSpecErrors, DeploymentNeedsChains) {
  expect_error("[scenario]\nname = x\nkind = deployment\n",
               "at least one [chain]");
}

TEST(ScenarioSpecErrors, DeploymentDuplicateChainNames) {
  expect_error(
      "[scenario]\nname = x\nkind = deployment\n"
      "[chain]\nname = web\nspec = wire | S:Monitor | wire\n"
      "[chain]\nname = web\nspec = wire | S:Logger | wire\n",
      "duplicate [chain] name 'web'");
}

TEST(ScenarioSpecErrors, WarmupMustBeShorterThanDuration) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "duration_ms = 10\nwarmup_ms = 10\n[variant]\npolicy = pam\n",
      "duration_ms > warmup_ms");
}

// --- round trip -----------------------------------------------------------

TEST(ScenarioSpecRoundTrip, EveryBundledPresetRoundTrips) {
  const std::string dir = default_scenario_dir();
  const auto names = list_scenarios(dir);
  ASSERT_TRUE(names.has_value()) << names.error().what();
  // The repo bundles the six paper presets plus quickstart and the
  // walkthrough; fail loudly if the directory went missing or was emptied.
  EXPECT_GE(names.value().size(), 6u);
  for (const auto& name : names.value()) {
    SCOPED_TRACE(name);
    const auto first = load_bundled_scenario(name);
    ASSERT_TRUE(first.has_value()) << first.error().what();
    const std::string canonical = first.value().to_text();
    const auto second = ScenarioSpec::parse(canonical, name + " (canonical)");
    ASSERT_TRUE(second.has_value()) << second.error().what();
    EXPECT_TRUE(first.value() == second.value())
        << "canonical form did not round-trip:\n" << canonical;
  }
}

TEST(ScenarioSpecRoundTrip, SyntheticTimelineRoundTrips) {
  const auto first = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = timeline
chain = wire | S:Monitor C:Logger | host
duration_ms = 50
warmup_ms = 5

[traffic]
arrival = poisson
sizes = imix
rate = sinusoid 1.5 0.75 period_ms=40

[policy]
name = pam
scale_in = scale-in

[controller]
trigger_utilization = 0.95
scale_in_below = 0.4
period_ms = 4
first_check_ms = 6
cooldown_ms = 12
)");
  ASSERT_TRUE(first.has_value()) << first.error().what();
  // A timeline's [controller] sets the loop knobs of its ClusterSpec.
  const ClusterSpec& knobs = first.value().cluster;
  EXPECT_DOUBLE_EQ(knobs.trigger_utilization, 0.95);
  EXPECT_DOUBLE_EQ(knobs.scale_in_below, 0.4);
  EXPECT_DOUBLE_EQ(knobs.period_ms, 4.0);
  EXPECT_DOUBLE_EQ(knobs.first_check_ms, 6.0);
  EXPECT_DOUBLE_EQ(knobs.cooldown_ms, 12.0);
  // ...and prints them back under [controller], never [cluster].
  const std::string text = first.value().to_text();
  EXPECT_NE(text.find("[controller]\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("[cluster]"), std::string::npos) << text;
  const auto second = ScenarioSpec::parse(text);
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value());
}

constexpr const char* kClusterText = R"(
[scenario]
name = c
kind = cluster
duration_ms = 30
warmup_ms = 5
seed = 9

[traffic]
arrival = cbr
sizes = fixed 512

[chain]
name = hot
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8
server = 0

[chain]
name = calm
spec = wire | S:Firewall | wire
offered_gbps = 0.5

[cluster]
servers = 4
rebalance = on
inter_server_us = 40
trigger_utilization = 0.95
target_max_load = 0.85
period_ms = 5
first_check_ms = 5
cooldown_ms = 15
)";

TEST(ScenarioSpec, ParsesClusterKind) {
  const auto result = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.kind, ScenarioKind::kCluster);
  EXPECT_EQ(spec.cluster.servers, 4u);
  EXPECT_TRUE(spec.cluster.rebalance);
  EXPECT_DOUBLE_EQ(spec.cluster.inter_server_us, 40.0);
  EXPECT_DOUBLE_EQ(spec.cluster.trigger_utilization, 0.95);
  EXPECT_DOUBLE_EQ(spec.cluster.target_max_load, 0.85);
  ASSERT_EQ(spec.chains.size(), 2u);
  EXPECT_EQ(spec.chains[0].server, 0);
  EXPECT_EQ(spec.chains[1].server, -1);  // round-robin default
}

TEST(ScenarioSpecRoundTrip, ClusterRoundTrips) {
  const auto first = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(first.has_value()) << first.error().what();
  const auto second = ScenarioSpec::parse(first.value().to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value());
}

TEST(ScenarioSpec, ClusterRequiresClusterSection) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = c
kind = cluster

[chain]
name = a
spec = wire | S:Firewall | wire
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("[cluster]"), std::string::npos);
}

TEST(ScenarioSpec, ClusterRejectsServerOutOfRange) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = c
kind = cluster

[chain]
name = a
spec = wire | S:Firewall | wire
server = 2

[cluster]
servers = 2
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("out of range"), std::string::npos);
}

TEST(ScenarioSpec, ParsesShardedClusterKeys) {
  std::string text{kClusterText};
  text += "shards = 2\nthreads = 4\ncross_rack_us = 80\norchestrate = off\n";
  const auto result = ScenarioSpec::parse(text);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.cluster.shards, 2u);
  EXPECT_EQ(spec.cluster.threads, 4u);
  EXPECT_DOUBLE_EQ(spec.cluster.cross_rack_us, 80.0);
  EXPECT_FALSE(spec.cluster.orchestrate);
}

TEST(ScenarioSpecRoundTrip, ShardedClusterRoundTrips) {
  std::string text{kClusterText};
  text += "shards = 4\nthreads = 2\ncross_rack_us = 120\n";
  const auto first = ScenarioSpec::parse(text);
  ASSERT_TRUE(first.has_value()) << first.error().what();
  const auto second = ScenarioSpec::parse(first.value().to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value()) << first.value().to_text();
}

TEST(ScenarioSpec, UnshardedClusterTextOmitsShardKeys) {
  // shards == 1 specs must echo byte-compatibly with the pre-sharding
  // schema: no sharded keys in the canonical text.
  const auto spec = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(spec.has_value()) << spec.error().what();
  const std::string canonical = spec.value().to_text();
  EXPECT_EQ(canonical.find("shards"), std::string::npos);
  EXPECT_EQ(canonical.find("threads"), std::string::npos);
  EXPECT_EQ(canonical.find("cross_rack_us"), std::string::npos);
  EXPECT_EQ(canonical.find("orchestrate"), std::string::npos);
}

TEST(ScenarioSpec, ShardKeysRequireShardedCluster) {
  std::string text{kClusterText};
  text += "threads = 4\n";
  const auto result = ScenarioSpec::parse(text);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("shards > 1"), std::string::npos);
}

TEST(ScenarioSpec, ShardsMustDivideServers) {
  std::string text{kClusterText};
  text += "shards = 3\n";  // servers = 4
  const auto result = ScenarioSpec::parse(text);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("divide evenly"), std::string::npos);
}

TEST(ScenarioSpec, InterServerLatencyMustNotBeNegative) {
  std::string text{kClusterText};
  const std::string key = "inter_server_us = 40";
  text.replace(text.find(key), key.size(), "inter_server_us = -5");
  const auto result = ScenarioSpec::parse(text);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("key 'inter_server_us': expected a finite number"),
            std::string::npos)
      << result.error().what();
}

TEST(ScenarioSpec, ChainServerKeyRejectedOutsideCluster) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = d
kind = deployment

[chain]
name = a
spec = wire | S:Firewall | wire
server = 0
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("only valid for kind = cluster"),
            std::string::npos);
}

TEST(ScenarioSpec, ClusterSectionRejectedOutsideClusterKind) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = compare
chain = wire | S:Monitor | wire

[variant]
policy = pam

[cluster]
servers = 2
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("only valid for kind = cluster"),
            std::string::npos);
}

TEST(ScenarioSpec, ScaledMultipliesClusterChainRates) {
  const auto result = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec scaled = result.value().scaled(1.5);
  EXPECT_NEAR(scaled.chains[0].offered_gbps, 4.2, 1e-12);
  EXPECT_NEAR(scaled.chains[1].offered_gbps, 0.75, 1e-12);
}

TEST(ScenarioSpec, ScaledMultipliesRates) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = s
kind = compare
chain = wire | S:Monitor | wire
plan_rate_gbps = 2

[variant]
policy = pam
measure_rate = 1.5

[variant]
policy = none
measure_rate = cap x 1.2
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec scaled = result.value().scaled(2.0);
  EXPECT_DOUBLE_EQ(scaled.plan_rate_gbps, 4.0);
  EXPECT_DOUBLE_EQ(scaled.variants[0].measure_rate.value, 3.0);
  // Capacity-relative rates follow the (scaled) capacity, not the factor.
  EXPECT_DOUBLE_EQ(scaled.variants[1].measure_rate.value, 1.2);
}

// --- ranges ---------------------------------------------------------------

TEST(ScenarioSpecErrors, OutOfRangeNumbersNameTheirKey) {
  const std::string compare =
      "[variant]\npolicy = pam\n"
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n";
  const std::string deployment =
      "[scenario]\nname = d\nkind = deployment\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\n";
  const std::string timeline =
      "[scenario]\nname = t\nkind = timeline\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = constant 1\n[controller]\n";
  const std::string cluster =
      "[scenario]\nname = c\nkind = cluster\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\n[cluster]\nservers = 2\n";
  const std::string sharded = cluster + "shards = 2\n";
  struct Case {
    std::string prefix;
    const char* key;
    const char* value;
  };
  const Case cases[] = {
      // Each of these ran to an all-zero report, or never finished, when
      // numbers carried no range.
      {compare, "duration_ms", "nan"},
      {compare, "warmup_ms", "nan"},
      {deployment, "offered_gbps", "nan"},
      {deployment, "offered_gbps", "-3"},
      {timeline, "period_ms", "0"},
      {timeline, "period_ms", "nan"},
      {cluster, "period_ms", "0"},
      {cluster, "period_ms", "nan"},
      {timeline, "cooldown_ms", "inf"},
      {cluster, "cooldown_ms", "inf"},
      {timeline, "trigger_utilization", "nan"},
      {sharded, "cross_rack_us", "nan"},
      {sharded, "cross_rack_us", "1e-9"},  // truncates to a 0 ns epoch quantum
  };
  for (const Case& c : cases) {
    const std::string text = c.prefix + c.key + " = " + c.value + "\n";
    SCOPED_TRACE(text);
    // The prefix parses on its own: the one added key is what fails.
    ASSERT_TRUE(ScenarioSpec::parse(c.prefix).has_value());
    expect_error(text, std::string{"key '"} + c.key + "': expected a finite number");
  }
}

// --- per-entry error lines ---------------------------------------------------

TEST(ScenarioSpecErrors, KindGatedKeyCitesItsOwnLine) {
  const std::string text =
      "[scenario]\n"                        // 1
      "name = d\n"                          // 2
      "kind = deployment\n"                 // 3
      "\n"                                  // 4
      "[chain]\n"                           // 5
      "name = a\n"                          // 6
      "spec = wire | S:Firewall | wire\n"   // 7
      "arrive_ms = 3\n"                     // 8
      "\n"                                  // 9
      "[chain]\n"                           // 10
      "name = b\n"                          // 11
      "spec = wire | S:Monitor | wire\n"    // 12
      "arrive_ms = 0\n";                    // 13
  expect_error(text, "err.scn:8: [chain] 'arrive_ms' is only valid for kind = churn");
  // A gated key given at its default value is still given.
  expect_error(
      "[scenario]\nname = d\nkind = deployment\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\narrive_ms = 0\n",
      "err.scn:7: [chain] 'arrive_ms' is only valid for kind = churn");
}

// --- parser robustness --------------------------------------------------------

/// Every input either fails with a message or parses to a spec whose
/// canonical text parses back to the same spec.
void expect_error_or_round_trip(const std::string& text) {
  const auto first = ScenarioSpec::parse(text, "mutant");
  if (!first.has_value()) {
    EXPECT_FALSE(first.error().what().empty()) << text;
    return;
  }
  const auto second = ScenarioSpec::parse(first.value().to_text(), "canonical");
  ASSERT_TRUE(second.has_value()) << second.error().what() << "\ninput:\n" << text;
  EXPECT_TRUE(first.value() == second.value()) << "input:\n" << text;
}

TEST(ScenarioSpecRobustness, MutatedPresetsFailCleanlyOrRoundTrip) {
  constexpr std::string_view kAlphabet = "=[]#.-0123456789abcdefghijklmnopqrstuvwxyz\n";
  constexpr int kMutationsPerPreset = 300;
  const std::string dir = default_scenario_dir();
  const auto names = list_scenarios(dir);
  ASSERT_TRUE(names.has_value()) << names.error().what();
  Rng rng{0x5ce7a110};
  for (const auto& name : names.value()) {
    SCOPED_TRACE(name);
    std::ifstream file{dir + "/" + name + ".scn"};
    const std::string text{std::istreambuf_iterator<char>{file}, {}};
    ASSERT_FALSE(text.empty());
    for (int i = 0; i < kMutationsPerPreset; ++i) {
      std::string mutant = text;
      mutant[rng.bounded(mutant.size())] = kAlphabet[rng.bounded(kAlphabet.size())];
      expect_error_or_round_trip(mutant);
    }
    for (std::size_t eol = text.find('\n'); eol != std::string::npos;
         eol = text.find('\n', eol + 1)) {
      expect_error_or_round_trip(text.substr(0, eol + 1));
    }
  }
}

}  // namespace
}  // namespace pam
