#include "experiment/metrics_sink.hpp"

#include <cstdio>

#include "common/strings.hpp"

namespace pam {

namespace {

void write_latency(JsonWriter& w, const LatencySummary& lat) {
  w.begin_object();
  w.key("mean_us"); w.value(lat.mean_us);
  w.key("p50_us"); w.value(lat.p50_us);
  w.key("p90_us"); w.value(lat.p90_us);
  w.key("p99_us"); w.value(lat.p99_us);
  w.key("max_us"); w.value(lat.max_us);
  w.key("samples"); w.value(lat.samples);
  w.end_object();
}

void write_run(JsonWriter& w, const MeasuredRun& run) {
  w.begin_object();
  w.key("size_bytes"); w.value(run.size_bytes);
  w.key("offered_gbps"); w.value(run.offered_gbps);
  w.key("goodput_gbps"); w.value(run.goodput_gbps);
  w.key("latency"); write_latency(w, run.latency);
  w.key("injected"); w.value(run.injected);
  w.key("delivered"); w.value(run.delivered);
  w.key("dropped");
  w.begin_object();
  w.key("queue_nic"); w.value(run.dropped_queue_nic);
  w.key("queue_cpu"); w.value(run.dropped_queue_cpu);
  w.key("queue_pcie"); w.value(run.dropped_queue_pcie);
  w.key("by_nf"); w.value(run.dropped_by_nf);
  w.key("total"); w.value(run.dropped_total());
  w.end_object();
  w.key("in_flight_at_end"); w.value(run.in_flight_at_end);
  w.key("mean_crossings_per_packet"); w.value(run.mean_crossings_per_packet);
  w.key("smartnic_utilization"); w.value(run.smartnic_utilization);
  w.key("cpu_utilization"); w.value(run.cpu_utilization);
  w.key("pcie_utilization"); w.value(run.pcie_utilization);
  w.end_object();
}

/// One `control_events` array: the typed ControlPlane decision log.
/// `spec` resolves chain indices to declared names (cluster runs).
void write_control_events(JsonWriter& w, const std::vector<ControlEvent>& events,
                          const ScenarioSpec& spec) {
  w.begin_array();
  for (const auto& event : events) {
    w.begin_object();
    w.key("at_ms"); w.value(event.at.ms());
    w.key("kind"); w.value(to_string(event.kind));
    w.key("chain"); w.value(static_cast<std::uint64_t>(event.chain));
    if (event.chain < spec.chains.size()) {
      w.key("chain_name"); w.value(spec.chains[event.chain].name);
    }
    w.key("server"); w.value(static_cast<std::uint64_t>(event.server));
    w.key("moved_nfs");
    w.begin_array();
    for (const auto& nf : event.moved_nfs) {
      w.value(nf);
    }
    w.end_array();
    w.key("smartnic_utilization"); w.value(event.smartnic_utilization);
    w.key("cpu_utilization"); w.value(event.cpu_utilization);
    w.key("detail"); w.value(event.detail);
    w.end_object();
  }
  w.end_array();
}

void write_variant(JsonWriter& w, const VariantResult& vr) {
  w.begin_object();
  w.key("label"); w.value(vr.label);
  w.key("policy"); w.value(vr.policy);
  w.key("plan_rate_gbps"); w.value(vr.plan_rate_gbps);
  w.key("measure_rate_gbps"); w.value(vr.measure_rate_gbps);
  w.key("chain_before"); w.value(vr.chain_before);
  w.key("chain_after"); w.value(vr.chain_after);
  w.key("plan");
  w.begin_object();
  w.key("feasible"); w.value(vr.plan.feasible);
  w.key("migrations"); w.value(vr.plan.steps.size());
  w.key("crossing_delta"); w.value(vr.plan.total_crossing_delta());
  w.key("steps");
  w.begin_array();
  for (const auto& step : vr.plan.steps) {
    w.begin_object();
    w.key("nf"); w.value(step.nf_name);
    w.key("from"); w.value(to_string(step.from));
    w.key("to"); w.value(to_string(step.to));
    w.key("crossing_delta"); w.value(step.crossing_delta);
    w.end_object();
  }
  w.end_array();
  if (!vr.plan.feasible) {
    w.key("infeasibility_reason");
    w.value(vr.plan.infeasibility_reason);
  }
  w.end_object();
  w.key("analytic");
  w.begin_object();
  w.key("max_rate_gbps"); w.value(vr.analytic.max_rate_gbps);
  w.key("smartnic_utilization"); w.value(vr.analytic.smartnic_utilization);
  w.key("cpu_utilization"); w.value(vr.analytic.cpu_utilization);
  w.key("pcie_utilization"); w.value(vr.analytic.pcie_utilization);
  w.key("pcie_crossings"); w.value(static_cast<std::uint64_t>(vr.analytic.pcie_crossings));
  w.end_object();
  w.key("runs");
  w.begin_array();
  for (const auto& run : vr.runs) {
    write_run(w, run);
  }
  w.end_array();
  w.end_object();
}

void write_compare(JsonWriter& w, const RunResult& result) {
  w.key("chain"); w.value(result.spec.chain);
  w.key("plan_rate_gbps"); w.value(result.spec.plan_rate_gbps);
  w.key("variants");
  w.begin_array();
  for (const auto& vr : result.variants) {
    write_variant(w, vr);
  }
  w.end_array();
}

void write_capacity(JsonWriter& w, const RunResult& result) {
  w.key("loss_threshold"); w.value(result.spec.capacity.loss_threshold);
  w.key("size_bytes"); w.value(result.spec.capacity.size_bytes);
  w.key("capacities");
  w.begin_array();
  for (const auto& row : result.capacities) {
    w.begin_object();
    w.key("nf"); w.value(row.nf);
    w.key("device"); w.value(row.device);
    w.key("configured_gbps"); w.value(row.configured_gbps);
    w.key("analytic_gbps"); w.value(row.analytic_gbps);
    w.key("realized_gbps"); w.value(row.realized_gbps);
    w.end_object();
  }
  w.end_array();
}

void write_timeline(JsonWriter& w, const RunResult& result) {
  const TimelineResult& tl = *result.timeline;
  w.key("chain"); w.value(result.spec.chain);
  w.key("policy"); w.value(result.spec.policy.to_string());
  if (result.spec.scale_in.name != "none") {
    w.key("scale_in_policy"); w.value(result.spec.scale_in.to_string());
  }
  w.key("chain_before"); w.value(tl.chain_before);
  w.key("chain_after"); w.value(tl.chain_after);
  w.key("migrations_executed"); w.value(tl.migrations_executed);
  w.key("scale_out_requested"); w.value(tl.scale_out_requested);
  w.key("control_events"); write_control_events(w, tl.events, result.spec);
  w.key("metrics"); write_run(w, tl.metrics);
}

/// Sharded datacenter mode only: classic shards=1 output is byte-identical
/// to what it was before sharding existed.  Note the deliberate absence of
/// any thread count — the report must be bit-identical for threads=1 and
/// threads=N.
void write_shards(JsonWriter& w, const ClusterResult& cr) {
  w.key("shards"); w.value(static_cast<std::uint64_t>(cr.shards));
  w.key("epochs"); w.value(cr.epochs);
  w.key("cross_rack_moves");
  w.value(static_cast<std::uint64_t>(cr.cross_rack_moves));
  w.key("cross_rack_hops"); w.value(cr.cross_rack_hops);
  w.key("cross_rack_frames"); w.value(cr.cross_rack_frames);
  w.key("shard_totals");
  w.begin_array();
  for (const auto& shard : cr.shard_totals) {
    w.begin_object();
    w.key("shard"); w.value(static_cast<std::uint64_t>(shard.shard));
    w.key("first_server");
    w.value(static_cast<std::uint64_t>(shard.first_server));
    w.key("servers"); w.value(static_cast<std::uint64_t>(shard.servers));
    w.key("events_executed"); w.value(shard.events_executed);
    w.key("injected"); w.value(shard.injected);
    w.key("delivered"); w.value(shard.delivered);
    w.key("dropped"); w.value(shard.dropped);
    w.key("in_flight_at_end"); w.value(shard.in_flight_at_end);
    w.key("frames_out"); w.value(shard.frames_out);
    w.end_object();
  }
  w.end_array();
}

/// The failure and hostile kinds' scheduled perturbations, when present.
void write_perturbations(JsonWriter& w, const ScenarioSpec& spec) {
  if (!spec.failures.empty()) {
    w.key("failures");
    w.begin_array();
    for (const auto& ev : spec.failures) {
      w.begin_object();
      w.key("server"); w.value(static_cast<std::uint64_t>(ev.server));
      w.key("at_ms"); w.value(ev.at_ms);
      if (ev.recover_ms >= 0.0) {
        w.key("recover_ms"); w.value(ev.recover_ms);
      }
      w.end_object();
    }
    w.end_array();
  }
  if (!spec.link.empty()) {
    w.key("link_trace");
    w.begin_object();
    w.key("fabric");
    w.begin_array();
    for (const auto& point : spec.link.fabric) {
      w.begin_object();
      w.key("at_ms"); w.value(point.at_ms);
      w.key("delay_us"); w.value(point.delay_us);
      w.end_object();
    }
    w.end_array();
    w.key("fades");
    w.begin_array();
    for (const auto& fade : spec.link.fades) {
      w.begin_object();
      w.key("server"); w.value(static_cast<std::uint64_t>(fade.server));
      w.key("at_ms"); w.value(fade.at_ms);
      w.key("speed"); w.value(fade.speed);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
}

void write_per_server(JsonWriter& w, const std::vector<ServerSummary>& servers) {
  w.begin_array();
  for (const auto& server : servers) {
    w.begin_object();
    w.key("server"); w.value(static_cast<std::uint64_t>(server.server_id));
    w.key("chains_homed");
    w.value(static_cast<std::uint64_t>(server.chains_homed));
    w.key("nodes_hosted");
    w.value(static_cast<std::uint64_t>(server.nodes_hosted));
    w.key("smartnic_utilization"); w.value(server.smartnic_utilization);
    w.key("cpu_utilization"); w.value(server.cpu_utilization);
    w.key("pcie_utilization"); w.value(server.pcie_utilization);
    w.key("injected"); w.value(server.injected);
    w.key("delivered"); w.value(server.delivered);
    w.key("dropped"); w.value(server.dropped);
    w.end_object();
  }
  w.end_array();
}

void write_fleet_chains(JsonWriter& w, const RunResult& result) {
  const ClusterResult& cr = *result.cluster;
  w.begin_array();
  for (std::size_t i = 0; i < cr.chains.size(); ++i) {
    const auto& chain = cr.chains[i];
    w.begin_object();
    w.key("name"); w.value(chain.name);
    w.key("home_server");
    w.value(static_cast<std::uint64_t>(chain.home_server));
    if (i < result.spec.chains.size() && !result.spec.chains[i].policy.empty()) {
      w.key("policy"); w.value(result.spec.chains[i].policy.to_string());
    }
    if (i < result.spec.chains.size()) {
      const ChainDecl& decl = result.spec.chains[i];
      if (decl.arrive_ms > 0.0) {
        w.key("arrive_ms"); w.value(decl.arrive_ms);
      }
      if (decl.depart_ms >= 0.0) {
        w.key("depart_ms"); w.value(decl.depart_ms);
      }
    }
    w.key("chain_before"); w.value(chain.chain_before);
    w.key("chain_after"); w.value(chain.chain_after);
    w.key("nodes_off_home");
    w.value(static_cast<std::uint64_t>(chain.nodes_off_home));
    if (cr.shards > 1) {
      w.key("nodes_remote");
      w.value(static_cast<std::uint64_t>(chain.nodes_remote));
    }
    w.key("inter_server_hops"); w.value(chain.inter_server_hops);
    w.key("metrics"); write_run(w, chain.metrics);
    w.end_object();
  }
  w.end_array();
}

/// The cluster, churn, failure and hostile kinds.
void write_fleet(JsonWriter& w, const RunResult& result) {
  const ClusterResult& cr = *result.cluster;
  w.key("servers"); w.value(static_cast<std::uint64_t>(cr.servers));
  w.key("rebalance"); w.value(cr.rebalance);
  w.key("policy"); w.value(result.spec.policy.to_string());
  w.key("migrations_executed");
  w.value(static_cast<std::uint64_t>(cr.migrations_executed));
  w.key("scale_out_moves");
  w.value(static_cast<std::uint64_t>(cr.scale_out_moves));
  w.key("evacuations");
  w.value(static_cast<std::uint64_t>(cr.evacuations));
  if (cr.shards > 1) {
    write_shards(w, cr);
  }
  write_perturbations(w, result.spec);
  w.key("inter_server_hops"); w.value(cr.inter_server_hops);
  w.key("conserved"); w.value(cr.conserved);
  w.key("fleet"); write_run(w, cr.fleet);
  w.key("per_server"); write_per_server(w, cr.per_server);
  w.key("chains"); write_fleet_chains(w, result);
  w.key("control_events"); write_control_events(w, cr.events, result.spec);
}

void write_deployment(JsonWriter& w, const RunResult& result) {
  const DeploymentResult& dr = *result.deployment;
  w.key("aggregate");
  w.begin_object();
  w.key("smartnic_before"); w.value(dr.smartnic_before);
  w.key("cpu_before"); w.value(dr.cpu_before);
  w.key("smartnic_after"); w.value(dr.smartnic_after);
  w.key("cpu_after"); w.value(dr.cpu_after);
  w.key("weighted_crossings_before"); w.value(dr.weighted_crossings_before);
  w.key("weighted_crossings_after"); w.value(dr.weighted_crossings_after);
  w.key("feasible"); w.value(dr.feasible);
  if (!dr.feasible) {
    w.key("infeasibility_reason"); w.value(dr.infeasibility_reason);
  }
  w.key("total_crossing_delta"); w.value(dr.total_crossing_delta);
  w.end_object();
  w.key("chains");
  w.begin_array();
  for (const auto& cr : dr.chains) {
    w.begin_object();
    w.key("name"); w.value(cr.name);
    w.key("chain_before"); w.value(cr.chain_before);
    w.key("chain_after"); w.value(cr.chain_after);
    w.key("offered_gbps"); w.value(cr.offered_gbps);
    w.key("burst_gbps"); w.value(cr.burst_gbps);
    w.key("replicas"); w.value(cr.replicas);
    w.key("scale_out_rationale"); w.value(cr.scale_out_rationale);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void write_metrics_json(const RunResult& result, std::ostream& out) {
  JsonWriter w{out};
  w.begin_object();
  w.key("scenario"); w.value(result.spec.name);
  w.key("kind"); w.value(to_string(result.spec.kind));
  if (!result.spec.description.empty()) {
    w.key("description"); w.value(result.spec.description);
  }
  w.key("seed"); w.value(result.spec.seed);
  w.key("duration_ms"); w.value(result.spec.duration_ms);
  w.key("warmup_ms"); w.value(result.spec.warmup_ms);
  switch (result.spec.kind) {
    case ScenarioKind::kCompare:
      write_compare(w, result);
      break;
    case ScenarioKind::kCapacity:
      write_capacity(w, result);
      break;
    case ScenarioKind::kTimeline:
      write_timeline(w, result);
      break;
    case ScenarioKind::kCluster:
    case ScenarioKind::kChurn:
    case ScenarioKind::kFailure:
    case ScenarioKind::kHostile:
      write_fleet(w, result);
      break;
    case ScenarioKind::kDeployment:
      write_deployment(w, result);
      break;
  }
  w.end_object();
}

namespace {

void print_notes(const ScenarioSpec& spec, std::FILE* out) {
  if (spec.notes.empty()) {
    return;
  }
  std::fprintf(out, "\n");
  for (const auto& note : spec.notes) {
    std::fprintf(out, "note: %s\n", note.c_str());
  }
}

void print_plan_trace(const MigrationPlan& plan, std::FILE* out) {
  std::fprintf(out, "  plan: %s\n", plan.describe().c_str());
  for (const auto& line : plan.trace) {
    std::fprintf(out, "    trace | %s\n", line.c_str());
  }
}

void print_compare(const RunResult& result, bool verbose, std::FILE* out) {
  const ScenarioSpec& spec = result.spec;
  std::fprintf(out, "chain: %s\n", spec.chain.c_str());
  std::fprintf(out, "policies plan at %.3g Gbps\n\n", spec.plan_rate_gbps);

  // Placement/model summary, one row per variant.
  std::fprintf(out, "%-22s | %-9s | %5s | %6s | %9s | %-24s\n", "variant",
               "policy", "moves", "xings", "cap Gbps", "analytic util @ measure");
  std::fprintf(out, "-----------------------+-----------+-------+--------+-----------+-------------------------\n");
  for (const auto& vr : result.variants) {
    std::fprintf(out, "%-22s | %-9s | %5zu | %+4d=%u | %9.2f | nic %.2f cpu %.2f @ %.2f\n",
                 vr.label.c_str(), vr.policy.c_str(),
                 vr.plan.steps.size(), vr.plan.total_crossing_delta(),
                 vr.analytic.pcie_crossings, vr.analytic.max_rate_gbps,
                 vr.analytic.smartnic_utilization, vr.analytic.cpu_utilization,
                 vr.measure_rate_gbps);
  }
  if (verbose) {
    std::fprintf(out, "\n");
    for (const auto& vr : result.variants) {
      std::fprintf(out, "%s:\n", vr.label.c_str());
      std::fprintf(out, "  before: %s\n", vr.chain_before.c_str());
      std::fprintf(out, "  after:  %s\n", vr.chain_after.c_str());
      print_plan_trace(vr.plan, out);
    }
  }

  // DES measurements: rows = size points, columns = variants.
  const bool have_runs = !result.variants.empty() && !result.variants.front().runs.empty();
  if (have_runs) {
    std::fprintf(out, "\nDES latency mean/p99 (us) and goodput:\n");
    std::fprintf(out, "%-8s", "size");
    for (const auto& vr : result.variants) {
      std::fprintf(out, " | %-26s", vr.label.c_str());
    }
    std::fprintf(out, "\n");
    const std::size_t rows = result.variants.front().runs.size();
    std::vector<double> mean_sum(result.variants.size(), 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t size = result.variants.front().runs[r].size_bytes;
      if (size != 0) {
        std::fprintf(out, "%5zu B ", size);
      } else {
        std::fprintf(out, "%-8s", "mixed");
      }
      for (std::size_t v = 0; v < result.variants.size(); ++v) {
        const MeasuredRun& run = result.variants[v].runs[r];
        mean_sum[v] += run.latency.mean_us;
        std::fprintf(out, " | %8.1f /%8.1f %7.2fG", run.latency.mean_us,
                     run.latency.p99_us, run.goodput_gbps);
      }
      std::fprintf(out, "\n");
    }
    if (rows > 1) {
      std::fprintf(out, "%-8s", "avg");
      for (std::size_t v = 0; v < result.variants.size(); ++v) {
        std::fprintf(out, " | %8.1f us mean%10s", mean_sum[v] / static_cast<double>(rows), "");
      }
      std::fprintf(out, "\n");
    }
    // Pairwise headlines over every ordered variant pair, so e.g. both
    // "Naive vs Original" and the paper's "PAM decreases latency by 18%
    // compared to the naive solution" are reproduced directly.
    if (result.variants.size() > 1) {
      std::fprintf(out, "\n");
      for (std::size_t v = 1; v < result.variants.size(); ++v) {
        for (std::size_t b = 0; b < v; ++b) {
          const double base_mean = mean_sum[b] / static_cast<double>(rows);
          const double base_cap = result.variants[b].analytic.max_rate_gbps;
          const double mean = mean_sum[v] / static_cast<double>(rows);
          std::fprintf(
              out, "%s vs %s: %+.1f%% mean latency, %+.1f%% analytic capacity\n",
              result.variants[v].label.c_str(), result.variants[b].label.c_str(),
              base_mean > 0.0 ? (mean - base_mean) / base_mean * 100.0 : 0.0,
              base_cap > 0.0
                  ? (result.variants[v].analytic.max_rate_gbps - base_cap) /
                        base_cap * 100.0
                  : 0.0);
        }
      }
    }
  }
}

void print_capacity(const RunResult& result, std::FILE* out) {
  std::fprintf(out, "(configured = capacity table theta; analytic = model max rate;\n");
  std::fprintf(out, " realized = DES binary search at < %.2f%% loss, %zuB frames)\n\n",
               result.spec.capacity.loss_threshold * 100.0,
               result.spec.capacity.size_bytes);
  std::fprintf(out, "%-14s %-10s | %12s %12s %12s\n", "vNF", "device",
               "theta (cfg)", "analytic", "realized");
  std::fprintf(out, "---------------------------------------------------------------\n");
  for (const auto& row : result.capacities) {
    std::fprintf(out, "%-14s %-10s | %9.2f G  %9.2f G  %9.2f G\n", row.nf.c_str(),
                 row.device.c_str(), row.configured_gbps, row.analytic_gbps,
                 row.realized_gbps);
  }
}

/// "  <time> ms | [kind       ] detail" — one line per typed decision.
void print_control_event(const ControlEvent& event, const char* chain_name,
                         std::FILE* out) {
  std::fprintf(out, "  %8.2f ms | %-17s | %s%s%s%s\n", event.at.ms(),
               std::string{to_string(event.kind)}.c_str(),
               chain_name != nullptr ? "[" : "",
               chain_name != nullptr ? chain_name : "",
               chain_name != nullptr ? "] " : "", event.detail.c_str());
}

void print_timeline(const RunResult& result, std::FILE* out) {
  const TimelineResult& tl = *result.timeline;
  std::fprintf(out, "chain before: %s\n", tl.chain_before.c_str());
  std::fprintf(out, "chain after:  %s\n", tl.chain_after.c_str());
  std::fprintf(out, "policy: %s%s%s\n\n", result.spec.policy.to_string().c_str(),
               result.spec.scale_in.name != "none" ? ", scale-in: " : "",
               result.spec.scale_in.name != "none"
                   ? result.spec.scale_in.to_string().c_str()
                   : "");
  std::fprintf(out, "controller timeline:\n");
  for (const auto& event : tl.events) {
    print_control_event(event, nullptr, out);
  }
  if (tl.events.empty()) {
    std::fprintf(out, "  (no controller events)\n");
  }
  std::fprintf(out, "\nmigrations executed: %zu%s\n", tl.migrations_executed,
               tl.scale_out_requested ? "  (scale-out requested)" : "");
  const MeasuredRun& m = tl.metrics;
  std::fprintf(out,
               "run metrics: goodput %.2f Gbps, latency mean %.1f us p99 %.1f us, "
               "delivered %llu, dropped %llu\n",
               m.goodput_gbps, m.latency.mean_us, m.latency.p99_us,
               static_cast<unsigned long long>(m.delivered),
               static_cast<unsigned long long>(m.dropped_total()));
}

void print_deployment(const RunResult& result, bool verbose, std::FILE* out) {
  const DeploymentResult& dr = *result.deployment;
  std::fprintf(out, "aggregate utilisation: nic %.2f cpu %.2f  ->  nic %.2f cpu %.2f\n",
               dr.smartnic_before, dr.cpu_before, dr.smartnic_after, dr.cpu_after);
  std::fprintf(out, "weighted crossings:    %.2f -> %.2f Gbps-crossings (delta %+d)\n",
               dr.weighted_crossings_before, dr.weighted_crossings_after,
               dr.total_crossing_delta);
  if (!dr.feasible) {
    std::fprintf(out, "multi-chain PAM infeasible: %s\n",
                 dr.infeasibility_reason.c_str());
  }
  if (verbose) {
    std::fprintf(out, "\nmulti-chain PAM decision:\n");
    for (const auto& line : dr.trace) {
      std::fprintf(out, "  %s\n", line.c_str());
    }
  }
  std::fprintf(out, "\nscale-out sizing at %.2gx load:\n",
               result.spec.deployment.burst_multiplier);
  for (const auto& cr : dr.chains) {
    std::fprintf(out, "  %-10s %5.2f -> %5.2f Gbps: %zu replica(s): %s\n",
                 cr.name.c_str(), cr.offered_gbps, cr.burst_gbps, cr.replicas,
                 cr.scale_out_rationale.c_str());
    if (verbose) {
      std::fprintf(out, "    before: %s\n    after:  %s\n", cr.chain_before.c_str(),
                   cr.chain_after.c_str());
    }
  }
}

void print_cluster(const RunResult& result, bool verbose, std::FILE* out) {
  const ClusterResult& cr = *result.cluster;
  std::fprintf(out,
               "%zu server(s), %zu chain(s), rebalance %s (policy %s) | "
               "migrations %zu, cross-server moves %zu, evacuations %zu\n\n",
               cr.servers, cr.chains.size(), cr.rebalance ? "on" : "off",
               result.spec.policy.to_string().c_str(), cr.migrations_executed,
               cr.scale_out_moves, cr.evacuations);
  if (cr.shards > 1) {
    std::fprintf(out,
                 "sharded: %zu rack(s) x %zu server(s), %llu epoch(s) | "
                 "cross-rack moves %zu, fabric frames %llu, fabric packets "
                 "%llu\n",
                 cr.shards, cr.servers / cr.shards,
                 static_cast<unsigned long long>(cr.epochs),
                 cr.cross_rack_moves,
                 static_cast<unsigned long long>(cr.cross_rack_frames),
                 static_cast<unsigned long long>(cr.cross_rack_hops));
  }
  for (const auto& ev : result.spec.failures) {
    if (ev.recover_ms >= 0.0) {
      std::fprintf(out, "failure: server %zu dies at %.1f ms, recovers at %.1f ms\n",
                   ev.server, ev.at_ms, ev.recover_ms);
    } else {
      std::fprintf(out, "failure: server %zu dies at %.1f ms (no recovery)\n",
                   ev.server, ev.at_ms);
    }
  }
  for (const auto& point : result.spec.link.fabric) {
    std::fprintf(out, "link: fabric delay -> %.1f us at %.1f ms\n", point.delay_us,
                 point.at_ms);
  }
  for (const auto& fade : result.spec.link.fades) {
    std::fprintf(out, "link: server %zu fades to %.2fx speed at %.1f ms\n",
                 fade.server, fade.speed, fade.at_ms);
  }
  if (!result.spec.failures.empty() || !result.spec.link.empty()) {
    std::fprintf(out, "\n");
  }

  std::fprintf(out, "%-7s | %6s | %5s | %-21s | %9s %9s %9s\n", "server",
               "chains", "nodes", "util nic/cpu/pcie", "injected", "delivered",
               "dropped");
  std::fprintf(out, "--------+--------+-------+-----------------------+-------------------------------\n");
  for (const auto& server : cr.per_server) {
    std::fprintf(out, "%7zu | %6zu | %5zu | %5.2f / %5.2f / %5.2f | %9llu %9llu %9llu\n",
                 server.server_id, server.chains_homed, server.nodes_hosted,
                 server.smartnic_utilization, server.cpu_utilization,
                 server.pcie_utilization,
                 static_cast<unsigned long long>(server.injected),
                 static_cast<unsigned long long>(server.delivered),
                 static_cast<unsigned long long>(server.dropped));
  }

  std::fprintf(out, "\n%-12s | %4s | %8s | %8s | %8s /%8s | %s\n", "chain", "home",
               "offered", "goodput", "lat mean", "p99 (us)", "placement");
  std::fprintf(out, "-------------+------+----------+----------+--------------------+-----------\n");
  for (const auto& chain : cr.chains) {
    std::fprintf(out, "%-12s | %4zu | %6.2f G | %6.2f G | %8.1f /%8.1f | %s%s\n",
                 chain.name.c_str(), chain.home_server,
                 chain.metrics.offered_gbps, chain.metrics.goodput_gbps,
                 chain.metrics.latency.mean_us, chain.metrics.latency.p99_us,
                 chain.chain_after.c_str(),
                 chain.nodes_off_home > 0
                     ? format(" (%zu NF(s) off-home)", chain.nodes_off_home).c_str()
                     : "");
  }

  const MeasuredRun& fleet = cr.fleet;
  std::fprintf(out,
               "\nfleet: offered %.2f Gbps -> goodput %.2f Gbps | latency mean "
               "%.1f us p99 %.1f us | delivered %llu, dropped %llu, "
               "inter-server hops %llu%s\n",
               fleet.offered_gbps, fleet.goodput_gbps, fleet.latency.mean_us,
               fleet.latency.p99_us,
               static_cast<unsigned long long>(fleet.delivered),
               static_cast<unsigned long long>(fleet.dropped_total()),
               static_cast<unsigned long long>(cr.inter_server_hops),
               cr.conserved ? "" : "  [NOT CONSERVED]");

  if (verbose || !cr.events.empty()) {
    std::fprintf(out, "\nfleet controller timeline:\n");
    for (const auto& event : cr.events) {
      const char* chain_name = event.chain < result.spec.chains.size()
                                   ? result.spec.chains[event.chain].name.c_str()
                                   : "?";
      print_control_event(event, chain_name, out);
    }
    if (cr.events.empty()) {
      std::fprintf(out, "  (no fleet controller events)\n");
    }
  }
}

}  // namespace

void print_report(const RunResult& result, bool verbose, std::FILE* out) {
  if (out == nullptr) {
    out = stdout;
  }
  const ScenarioSpec& spec = result.spec;
  std::fprintf(out, "=== %s [%s] ===\n", spec.name.c_str(),
               std::string{to_string(spec.kind)}.c_str());
  if (!spec.description.empty()) {
    std::fprintf(out, "%s\n", spec.description.c_str());
  }
  std::fprintf(out, "\n");

  switch (spec.kind) {
    case ScenarioKind::kCompare:
      print_compare(result, verbose, out);
      break;
    case ScenarioKind::kCapacity:
      print_capacity(result, out);
      break;
    case ScenarioKind::kTimeline:
      print_timeline(result, out);
      break;
    case ScenarioKind::kDeployment:
      print_deployment(result, verbose, out);
      break;
    case ScenarioKind::kCluster:
    case ScenarioKind::kChurn:
    case ScenarioKind::kFailure:
    case ScenarioKind::kHostile:
      print_cluster(result, verbose, out);
      break;
  }
  print_notes(spec, out);
}

}  // namespace pam
