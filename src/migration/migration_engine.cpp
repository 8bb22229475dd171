#include "migration/migration_engine.hpp"

#include <cassert>
#include <memory>

#include "nf/nf_factory.hpp"

namespace pam {

MigrationEngine::MigrationEngine(ChainSimulator& sim, MigrationEngineOptions options)
    : sim_(sim), options_(options) {}

void MigrationEngine::execute(const MigrationPlan& plan, std::function<void()> on_done) {
  assert(!busy_ && "MigrationEngine::execute while a plan is in progress");
  if (!plan.feasible || plan.empty()) {
    if (on_done) {
      on_done();
    }
    return;
  }
  busy_ = true;
  run_step(std::make_shared<MigrationPlan>(plan), 0, std::move(on_done));
}

void MigrationEngine::run_step(std::shared_ptr<MigrationPlan> plan,
                               std::size_t step_index,
                               std::function<void()> on_done) {
  if (step_index >= plan->steps.size()) {
    busy_ = false;
    if (on_done) {
      on_done();
    }
    return;
  }
  const MigrationStep step = plan->steps[step_index];
  const std::size_t idx = step.node_index;

  // 1. pause — arrivals to this NF start parking.
  sim_.pause_node(idx);
  const SimTime started = sim_.now();

  // 2. snapshot the live instance.
  NetworkFunction& old_instance = sim_.nf(idx);
  const NfState snapshot = old_instance.export_state();

  // 3. transfer: control overhead + state over the PCIe link model.
  const auto& pcie = sim_.server().pcie();
  SimTime transfer = options_.control_overhead;
  const SimTime state_time = snapshot.size().value() > 0
                                 ? pcie.crossing_latency(snapshot.size())
                                 : options_.min_transfer;
  transfer += std::max(state_time, options_.min_transfer);

  sim_.kernel().schedule_after(transfer, [this, plan, step_index, idx, step, started,
                                          on_done = std::move(on_done)]() mutable {
    // 4. restore: fresh instance at the destination gets a *fresh* snapshot
    // (packets already queued at the old device may have updated state
    // during the transfer window; re-exporting at switch-over keeps the
    // restored instance exact).
    NetworkFunction& old_nf = sim_.nf(idx);
    const NfState final_snapshot = old_nf.export_state();
    const auto& spec = sim_.chain().node(idx).spec;
    auto fresh = make_network_function(spec.type, spec.name, spec.load_factor);
    fresh->import_state(final_snapshot);

    MigrationRecord record;
    record.nf_name = step.nf_name;
    record.from = step.from;
    record.to = step.to;
    record.started = started;
    record.state_size = final_snapshot.size();
    record.packets_buffered = sim_.buffered_at(idx);

    sim_.replace_nf(idx, std::move(fresh));
    sim_.set_node_location(idx, step.to);

    // 5. resume — flush the parked packets through the new location.
    sim_.resume_node(idx);
    record.completed = sim_.now();
    records_.push_back(record);

    run_step(std::move(plan), step_index + 1, std::move(on_done));
  });
}

}  // namespace pam
