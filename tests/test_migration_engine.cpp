// Migration engine tests: live migrations inside the simulator must be
// loss-free, preserve NF state exactly, and leave the placement consistent.

#include <gtest/gtest.h>

#include <algorithm>

#include "chain/chain_analyzer.hpp"
#include "chain/chain_builder.hpp"
#include "core/pam_policy.hpp"
#include "migration/migration_engine.hpp"
#include "nf/monitor.hpp"
#include "one_chain.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TrafficSourceConfig traffic(Gbps rate, std::uint64_t seed = 11) {
  TrafficSourceConfig cfg;
  cfg.rate = RateProfile::constant(rate);
  cfg.sizes = PacketSizeDistribution::fixed(512);
  cfg.seed = seed;
  return cfg;
}

MigrationPlan logger_plan() {
  MigrationPlan plan;
  plan.policy_name = "test";
  MigrationStep step;
  step.node_index = 2;
  step.nf_name = "Logger";
  step.from = Location::kSmartNic;
  step.to = Location::kCpu;
  plan.steps.push_back(step);
  return plan;
}

TEST(MigrationEngine, ExecutesPlanAndRelocates) {
  OneChain one{paper_figure1_chain(), traffic(1.0_gbps)};
  ChainSimulator& sim = one.sim();
  MigrationEngine engine{sim};
  sim.kernel().schedule_at(SimTime::milliseconds(20),
                           [&] { engine.execute(logger_plan()); });
  const auto report = one.run(SimTime::milliseconds(60), SimTime::milliseconds(5));

  EXPECT_EQ(sim.chain().location_of(2), Location::kCpu);
  ASSERT_EQ(engine.records().size(), 1u);
  const auto& record = engine.records()[0];
  EXPECT_EQ(record.nf_name, "Logger");
  EXPECT_GT(record.downtime().ns(), 0);
  EXPECT_GT(record.state_size.value(), 0u);
  EXPECT_TRUE(report.conserved());
}

TEST(MigrationEngine, LossFreeUnderLoad) {
  OneChain one{paper_figure1_chain(), traffic(1.4_gbps)};
  ChainSimulator& sim = one.sim();
  MigrationEngine engine{sim};
  sim.kernel().schedule_at(SimTime::milliseconds(20),
                           [&] { engine.execute(logger_plan()); });
  const auto report = one.run(SimTime::milliseconds(80), SimTime::milliseconds(5));

  ASSERT_EQ(engine.records().size(), 1u);
  EXPECT_GT(engine.records()[0].packets_buffered, 0u);  // traffic was parked
  EXPECT_EQ(report.in_flight_at_end, 0u);               // and fully flushed
  EXPECT_EQ(report.dropped_total(), 0u);                // loss-free migration
  EXPECT_TRUE(report.conserved());
}

TEST(MigrationEngine, StateSurvivesMigrationExactly) {
  OneChain one{paper_figure1_chain(), traffic(1.0_gbps)};
  ChainSimulator& sim = one.sim();
  MigrationEngine engine{sim};

  // Snapshot the Monitor's view just before migrating the Monitor itself.
  std::uint64_t flows_before = 0;
  std::uint64_t bytes_before = 0;
  MigrationPlan plan;
  plan.policy_name = "test";
  MigrationStep step;
  step.node_index = 1;
  step.nf_name = "Monitor";
  step.from = Location::kSmartNic;
  step.to = Location::kCpu;
  plan.steps.push_back(step);

  sim.kernel().schedule_at(SimTime::milliseconds(25), [&] {
    const auto& mon = dynamic_cast<const Monitor&>(sim.nf(1));
    flows_before = mon.flow_count();
    bytes_before = mon.total_bytes();
    engine.execute(plan);
  });
  (void)one.run(SimTime::milliseconds(70), SimTime::milliseconds(5));

  const auto& mon_after = dynamic_cast<const Monitor&>(sim.nf(1));
  EXPECT_GT(flows_before, 0u);
  // The restored instance carries everything the original had, plus what it
  // processed after resuming.
  EXPECT_GE(mon_after.flow_count(), flows_before);
  EXPECT_GT(mon_after.total_bytes(), bytes_before);
  EXPECT_EQ(sim.chain().location_of(1), Location::kCpu);
}

TEST(MigrationEngine, MultiStepPlansRunSequentially) {
  const auto chain = ChainBuilder{"deep"}
                         .add(NfType::kFirewall, "fw", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon1", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon2", Location::kSmartNic)
                         .add(NfType::kMonitor, "mon3", Location::kSmartNic)
                         .add(NfType::kLoadBalancer, "lb", Location::kCpu)
                         .build();
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};
  const PamPolicy policy;
  const auto plan = policy.plan(chain, analyzer, 1.5_gbps);
  ASSERT_EQ(plan.steps.size(), 2u);

  OneChain one{chain, traffic(1.5_gbps)};
  ChainSimulator& sim = one.sim();
  MigrationEngine engine{sim};
  bool done = false;
  sim.kernel().schedule_at(SimTime::milliseconds(20),
                           [&] { engine.execute(plan, [&] { done = true; }); });
  const auto report = one.run(SimTime::milliseconds(100), SimTime::milliseconds(5));

  EXPECT_TRUE(done);
  ASSERT_EQ(engine.records().size(), 2u);
  // Steps do not overlap in time.
  EXPECT_GE(engine.records()[1].started, engine.records()[0].completed);
  EXPECT_EQ(sim.chain().location_of(3), Location::kCpu);
  EXPECT_EQ(sim.chain().location_of(2), Location::kCpu);
  EXPECT_TRUE(report.conserved());
}

TEST(MigrationEngine, InfeasiblePlanIsANoOp) {
  OneChain one{paper_figure1_chain(), traffic(1.0_gbps)};
  ChainSimulator& sim = one.sim();
  MigrationEngine engine{sim};
  MigrationPlan plan = logger_plan();
  plan.feasible = false;
  bool done = false;
  sim.kernel().schedule_at(SimTime::milliseconds(10),
                           [&] { engine.execute(plan, [&] { done = true; }); });
  (void)one.run(SimTime::milliseconds(30), SimTime::milliseconds(5));
  EXPECT_TRUE(done);  // callback still fires
  EXPECT_TRUE(engine.records().empty());
  EXPECT_EQ(sim.chain().location_of(2), Location::kSmartNic);
}

TEST(MigrationEngine, DowntimeScalesWithStateSize) {
  // Run longer before migrating -> the Monitor accumulates more flow state
  // -> larger blob -> longer transfer.
  auto run_with_migration_at = [](SimTime when) {
    TrafficSourceConfig cfg = traffic(1.0_gbps, 42);
    cfg.flows.flow_count = 4096;  // plenty of distinct flows to accumulate
    OneChain one{paper_figure1_chain(), cfg};
    ChainSimulator& sim = one.sim();
    MigrationEngine engine{sim};
    MigrationPlan plan;
    plan.policy_name = "test";
    MigrationStep step;
    step.node_index = 1;
    step.nf_name = "Monitor";
    step.from = Location::kSmartNic;
    step.to = Location::kCpu;
    plan.steps.push_back(step);
    sim.kernel().schedule_at(when, [&] { engine.execute(plan); });
    (void)one.run(when + SimTime::milliseconds(40), SimTime::milliseconds(1));
    return engine.records().at(0);
  };
  const auto early = run_with_migration_at(SimTime::milliseconds(5));
  const auto late = run_with_migration_at(SimTime::milliseconds(60));
  EXPECT_GT(late.state_size.value(), early.state_size.value());
  EXPECT_GT(late.downtime(), early.downtime());
}

TEST(MigrationEngine, DowntimeIsControlOverheadPlusStateTransfer) {
  // Downtime = control-plane overhead + the state blob's PCIe crossing,
  // floored at min_transfer (an empty blob pays min_transfer), whichever
  // way the NF moves.  With no traffic the Logger's state cannot change
  // while it is paused, so both directions move the same blob.  The
  // default floor exceeds that blob's crossing; a 1 us floor does not.
  MigrationEngineOptions low_floor;
  low_floor.min_transfer = SimTime::microseconds(1.0);
  for (const MigrationEngineOptions& opts : {MigrationEngineOptions{}, low_floor}) {
    auto downtime_of = [&](Location from, Location to) {
      Server server = Server::paper_testbed();
      ServiceChain chain = paper_figure1_chain();
      chain.set_location(2, from);
      OneChain one{chain, traffic(Gbps::zero())};
      ChainSimulator& sim = one.sim();
      MigrationEngine engine{sim, opts};
      MigrationPlan plan = logger_plan();
      plan.steps[0].from = from;
      plan.steps[0].to = to;
      sim.kernel().schedule_at(SimTime::milliseconds(5), [&] { engine.execute(plan); });
      (void)one.run(SimTime::milliseconds(20), SimTime::milliseconds(1));
      const MigrationRecord record = engine.records().at(0);
      const SimTime transfer =
          record.state_size.value() > 0
              ? std::max(server.pcie().crossing_latency(record.state_size),
                         opts.min_transfer)
              : opts.min_transfer;
      EXPECT_EQ(record.downtime(), opts.control_overhead + transfer);
      return record.downtime();
    };
    const SimTime push_aside = downtime_of(Location::kSmartNic, Location::kCpu);
    const SimTime pull_back = downtime_of(Location::kCpu, Location::kSmartNic);
    EXPECT_EQ(push_aside, pull_back);
  }
}

}  // namespace
}  // namespace pam
