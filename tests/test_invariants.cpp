// Invariant-checker mutation tests: a real cluster run audits green, and
// then each seeded mutation of the result — a dropped packet, a reordered
// event, a lost NF instance, a mid-cooldown trigger, an overlapping plan —
// is caught by exactly the right invariant with an actionable diagnostic.
// This is the checker checking the checker: a rule that cannot catch its
// own target mutation proves nothing when the fuzzer relies on it.

#include <gtest/gtest.h>

#include <string>

#include "experiment/invariants.hpp"
#include "experiment/scenario_runner.hpp"
#include "experiment/scenario_spec.hpp"

namespace pam {
namespace {

constexpr const char* kFleetScn = R"(
[scenario]
name = invariants-fixture
kind = cluster
duration_ms = 30
warmup_ms = 5
seed = 3

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
offered_gbps = 0.4
server = 1

[cluster]
servers = 2
rebalance = on
target_max_load = 0.95
first_check_ms = 5
period_ms = 5
cooldown_ms = 10
)";

/// One real execution, shared across mutation tests (runs are deterministic,
/// so a single fixture result is enough).
const RunResult& green_result() {
  static const RunResult result = [] {
    auto spec = ScenarioSpec::parse(kFleetScn, "invariants-fixture");
    EXPECT_TRUE(spec) << spec.error().what();
    const ScenarioRunner runner;
    auto run = runner.run(spec.value());
    EXPECT_TRUE(run) << (run ? std::string{} : run.error().what());
    return run.value();
  }();
  return result;
}

/// The single violation a mutation is expected to produce.
void expect_caught(const RunResult& mutated, const char* invariant,
                   const char* detail_fragment) {
  const InvariantReport report = check_invariants(mutated);
  ASSERT_FALSE(report.ok()) << "mutation went undetected (" << invariant
                            << ")";
  EXPECT_EQ(report.violations[0].invariant, invariant) << report.describe();
  EXPECT_NE(report.violations[0].detail.find(detail_fragment),
            std::string::npos)
      << report.describe();
}

TEST(Invariants, RealClusterRunAuditsGreen) {
  const InvariantReport report = check_invariants(green_result());
  EXPECT_TRUE(report.ok()) << report.describe();
  // The fixture is only meaningful if the controller actually acted.
  ASSERT_TRUE(green_result().cluster.has_value());
  EXPECT_FALSE(green_result().cluster->events.empty());
  EXPECT_EQ(check_invariants(green_result()).describe(),
            "all invariants hold");
}

TEST(Invariants, DroppedPacketBreaksChainConservation) {
  RunResult mutated = green_result();
  ASSERT_FALSE(mutated.cluster->chains.empty());
  mutated.cluster->chains[0].metrics.delivered -= 1;  // one packet vanishes
  expect_caught(mutated, "conservation", "off by 1");
}

TEST(Invariants, FleetLedgerMismatchBreaksConservation) {
  RunResult mutated = green_result();
  mutated.cluster->fleet.injected += 7;
  expect_caught(mutated, "conservation", "fleet aggregate");
}

TEST(Invariants, TamperedShardTotalOfOneRackRunIsCaught) {
  RunResult mutated = green_result();
  ASSERT_EQ(mutated.cluster->shards, 1u);
  ASSERT_EQ(mutated.cluster->shard_totals.size(), 1u);
  mutated.cluster->shard_totals[0].delivered += 1;  // a packet counted twice
  expect_caught(mutated, "shard-totals", "per-shard sums");
}

TEST(Invariants, ClusterConservedFlagIsAudited) {
  RunResult mutated = green_result();
  mutated.cluster->conserved = false;
  expect_caught(mutated, "conservation", "conservation flag is false");
}

TEST(Invariants, LostNfStateIsCaughtWithItsName) {
  RunResult mutated = green_result();
  ClusterChainResult& chain = mutated.cluster->chains[0];
  // Erase the Monitor instance from the after-placement: "Monitor1"
  // survives in chain_before only, i.e. the run destroyed NF state.
  const std::string::size_type at = chain.chain_after.find("Monitor1");
  ASSERT_NE(at, std::string::npos) << chain.chain_after;
  const std::string::size_type start = chain.chain_after.rfind("->", at);
  ASSERT_NE(start, std::string::npos);
  chain.chain_after.erase(start, at + 8 - start);
  expect_caught(mutated, "nf-state", "lost: Monitor1");
}

TEST(Invariants, ReorderedEventLogIsCaught) {
  RunResult mutated = green_result();
  ASSERT_GE(mutated.cluster->events.size(), 2u);
  // Push the first event after the second: the append-order log now runs
  // backwards in simulated time.
  mutated.cluster->events[0].at =
      mutated.cluster->events[1].at + SimTime::milliseconds(1);
  expect_caught(mutated, "monotone-events", "precedes");
}

TEST(Invariants, LoopEntryPastTheHorizonIsCaught) {
  RunResult mutated = green_result();
  ControlEvent late;
  late.kind = ControlEvent::Kind::kTriggered;
  late.chain = 0;
  late.at = SimTime::milliseconds(mutated.spec.duration_ms + 5.0);
  mutated.cluster->events.push_back(late);
  expect_caught(mutated, "monotone-events", "past the");
}

TEST(Invariants, TriggerInsideCooldownIsCaught) {
  RunResult mutated = green_result();
  auto& events = mutated.cluster->events;
  ControlEvent done;
  done.kind = ControlEvent::Kind::kMigrated;
  done.chain = 0;
  done.at = SimTime::milliseconds(20);
  ControlEvent early;
  early.kind = ControlEvent::Kind::kTriggered;
  early.chain = 0;
  early.at = SimTime::milliseconds(22);  // cooldown_ms = 10 in the fixture
  // Rebuild the log so the synthetic pair is cleanly appended in order.
  events.clear();
  events.push_back(done);
  events.push_back(early);
  expect_caught(mutated, "cooldown", "only 2.0000 ms after");
}

TEST(Invariants, OverlappingPlansBreakSingleFlight) {
  RunResult mutated = green_result();
  auto& events = mutated.cluster->events;
  events.clear();
  ControlEvent planned;
  planned.kind = ControlEvent::Kind::kPlanned;
  planned.chain = 0;
  planned.at = SimTime::milliseconds(5);
  events.push_back(planned);
  planned.at = SimTime::milliseconds(6);  // second plan, first never closed
  events.push_back(planned);
  expect_caught(mutated, "single-flight", "opened a second action");
}

TEST(Invariants, TriggerWhileMoveInFlightBreaksSingleFlight) {
  RunResult mutated = green_result();
  auto& events = mutated.cluster->events;
  events.clear();
  ControlEvent planned;
  planned.kind = ControlEvent::Kind::kPlanned;
  planned.chain = 0;
  planned.at = SimTime::milliseconds(5);
  events.push_back(planned);
  ControlEvent trig;
  trig.kind = ControlEvent::Kind::kTriggered;
  trig.chain = 0;
  trig.at = SimTime::milliseconds(6);
  events.push_back(trig);
  expect_caught(mutated, "single-flight", "still in flight");
}

TEST(Invariants, OnlyAScaleOutThatMovesAnNfOpensAnAction) {
  // A one-slot rack records its scale-out request without moving anything,
  // so a later trigger on the chain is legal; a scale-out that moves an NF
  // holds the chain until the move lands.
  RunResult mutated = green_result();
  auto& events = mutated.cluster->events;
  events.clear();
  ControlEvent request;
  request.kind = ControlEvent::Kind::kScaleOut;
  request.chain = 0;
  request.at = SimTime::milliseconds(5);
  events.push_back(request);
  ControlEvent trig;
  trig.kind = ControlEvent::Kind::kTriggered;
  trig.chain = 0;
  trig.at = SimTime::milliseconds(10);
  events.push_back(trig);
  EXPECT_TRUE(check_invariants(mutated).ok()) << check_invariants(mutated).describe();

  events.front().moved_nfs.push_back("Firewall");
  expect_caught(mutated, "single-flight", "still in flight");
}

TEST(Invariants, OneSlotClusterRunAuditsGreen) {
  // One slot with both devices hot: the rack controller can only record
  // the scale-out request, and re-triggers each period after it.
  auto spec = ScenarioSpec::parse(R"(
[scenario]
name = one-slot-fixture
kind = cluster
duration_ms = 40
warmup_ms = 5
seed = 3

[traffic]
arrival = cbr
sizes = fixed 512

[chain]
name = hot
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8

[cluster]
servers = 1
rebalance = on
first_check_ms = 5
period_ms = 5
cooldown_ms = 10
)",
                                  "one-slot-fixture");
  ASSERT_TRUE(spec) << spec.error().what();
  const auto run = ScenarioRunner{}.run(spec.value());
  ASSERT_TRUE(run) << run.error().what();
  std::size_t requests = 0;
  std::size_t triggers = 0;
  for (const ControlEvent& event : run.value().cluster->events) {
    requests += event.kind == ControlEvent::Kind::kScaleOut ? 1 : 0;
    triggers += event.kind == ControlEvent::Kind::kTriggered ? 1 : 0;
  }
  EXPECT_EQ(requests, 1u);
  EXPECT_GT(triggers, 1u);
  const InvariantReport report = check_invariants(run.value());
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(Invariants, EvacuationCompletionsNeedNoOpeningEvent) {
  // Evacuations are opened by on_server_failed without a visible event;
  // their completions must not be flagged as spurious closes, and they do
  // anchor the cooldown.
  RunResult mutated = green_result();
  auto& events = mutated.cluster->events;
  events.clear();
  ControlEvent evac;
  evac.kind = ControlEvent::Kind::kEvacuated;
  evac.chain = 0;
  evac.at = SimTime::milliseconds(10);
  events.push_back(evac);
  EXPECT_TRUE(check_invariants(mutated).ok());

  ControlEvent trig;
  trig.kind = ControlEvent::Kind::kTriggered;
  trig.chain = 0;
  trig.at = SimTime::milliseconds(12);
  events.push_back(trig);
  expect_caught(mutated, "cooldown", "after");
}

}  // namespace
}  // namespace pam
