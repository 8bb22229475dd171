#include "experiment/invariants.hpp"

#include <algorithm>
#include <cstddef>
#include <map>

#include "common/strings.hpp"

namespace pam {

namespace {

void add(InvariantReport& report, const char* invariant, std::string detail) {
  report.violations.push_back(InvariantViolation{invariant, std::move(detail)});
}

// --- conservation -----------------------------------------------------------

void check_conservation(const MeasuredRun& run, const std::string& where,
                        InvariantReport& report) {
  const std::uint64_t accounted =
      run.delivered + run.dropped_total() + run.in_flight_at_end;
  if (run.injected != accounted) {
    add(report, "conservation",
        format("%s: injected %llu != delivered %llu + dropped %llu + "
               "in-flight %llu (off by %lld)",
               where.c_str(), static_cast<unsigned long long>(run.injected),
               static_cast<unsigned long long>(run.delivered),
               static_cast<unsigned long long>(run.dropped_total()),
               static_cast<unsigned long long>(run.in_flight_at_end),
               static_cast<long long>(run.injected) -
                   static_cast<long long>(accounted)));
  }
}

// --- nf-state ---------------------------------------------------------------

/// Instance names out of a ServiceChain::describe() string:
/// "wire ->[S]fw ->[C]dpi -> host" -> {"fw", "dpi"}.  Sorted, so equal
/// vectors mean equal multisets.
std::vector<std::string> nf_names(const std::string& described) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while ((pos = described.find("->[", pos)) != std::string::npos) {
    const std::size_t close = described.find(']', pos);
    if (close == std::string::npos) {
      break;
    }
    std::size_t end = described.find(' ', close);
    if (end == std::string::npos) {
      end = described.size();
    }
    names.push_back(described.substr(close + 1, end - close - 1));
    pos = end;
  }
  std::sort(names.begin(), names.end());
  return names;
}

void check_nf_state(const std::string& before, const std::string& after,
                    const std::string& where, InvariantReport& report) {
  const std::vector<std::string> names_before = nf_names(before);
  const std::vector<std::string> names_after = nf_names(after);
  if (names_before == names_after) {
    return;
  }
  std::string lost;
  std::string gained;
  for (const auto& name : names_before) {
    if (std::count(names_after.begin(), names_after.end(), name) <
        std::count(names_before.begin(), names_before.end(), name)) {
      lost += lost.empty() ? name : ", " + name;
    }
  }
  for (const auto& name : names_after) {
    if (std::count(names_before.begin(), names_before.end(), name) <
        std::count(names_after.begin(), names_after.end(), name)) {
      gained += gained.empty() ? name : ", " + name;
    }
  }
  add(report, "nf-state",
      format("%s: NF instances changed across the run (lost: %s; gained: %s) "
             "— before '%s', after '%s'",
             where.c_str(), lost.empty() ? "none" : lost.c_str(),
             gained.empty() ? "none" : gained.c_str(), before.c_str(),
             after.c_str()));
}

// --- control log (monotone-events, cooldown, single-flight) -----------------

bool is_completion(const ControlEvent& event) {
  switch (event.kind) {
    case ControlEvent::Kind::kMigrated:
    case ControlEvent::Kind::kCrossServerMove:
    case ControlEvent::Kind::kCrossRackMove:
    case ControlEvent::Kind::kEvacuated:
      return true;
    case ControlEvent::Kind::kInfeasible:
      // A dead-target abort resumes in place and anchors the cooldown just
      // like a completed move.
      return event.detail.find("aborted") != std::string::npos;
    default:
      return false;
  }
}

void check_events(const std::vector<ControlEvent>& events, double duration_ms,
                  double cooldown_ms, InvariantReport& report) {
  // monotone-events: the log is appended in simulated-time order.
  SimTime last = SimTime::zero();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ControlEvent& event = events[i];
    if (event.at < last) {
      add(report, "monotone-events",
          format("event %zu (%s, chain %zu) at %.4f ms precedes event %zu "
                 "at %.4f ms",
                 i, std::string{to_string(event.kind)}.c_str(), event.chain,
                 event.at.ms(), i - 1, last.ms()));
    }
    last = std::max(last, event.at);
    // Loop entries only fire while the kernel is live; completions of
    // actions started before the horizon may trail into the post-horizon
    // drain (the kernel runs the queue dry so conservation holds), but not
    // unboundedly.
    const bool is_entry = event.kind == ControlEvent::Kind::kTriggered ||
                          event.kind == ControlEvent::Kind::kPlanned ||
                          event.kind == ControlEvent::Kind::kScaleIn ||
                          event.kind == ControlEvent::Kind::kScaleOut;
    const double slack_ms = is_entry ? 0.0 : 50.0;
    if (event.at.ms() > duration_ms + slack_ms + 1e-6) {
      add(report, "monotone-events",
          format("event %zu (%s, chain %zu) at %.4f ms is past the %.4f ms "
                 "run horizon%s",
                 i, std::string{to_string(event.kind)}.c_str(), event.chain,
                 event.at.ms(), duration_ms,
                 is_entry ? "" : " (+50 ms drain slack)"));
    }
  }

  // cooldown: a completed action on a chain quiets that chain's loop.
  std::map<std::size_t, SimTime> last_completion;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ControlEvent& event = events[i];
    const bool is_loop_entry = event.kind == ControlEvent::Kind::kTriggered ||
                               event.kind == ControlEvent::Kind::kScaleIn;
    if (is_loop_entry) {
      const auto anchor = last_completion.find(event.chain);
      if (anchor != last_completion.end()) {
        const double since_ms = event.at.ms() - anchor->second.ms();
        if (since_ms < cooldown_ms - 1e-6) {
          add(report, "cooldown",
              format("event %zu: chain %zu %s at %.4f ms, only %.4f ms after "
                     "its last completed action (cooldown is %.4f ms)",
                     i, event.chain,
                     std::string{to_string(event.kind)}.c_str(), event.at.ms(),
                     since_ms, cooldown_ms));
        }
      }
    }
    if (is_completion(event)) {
      last_completion[event.chain] = event.at;
    }
  }

  // single-flight: per chain, at most one visible action between open
  // (planned / scale-in / a scale-out that moves an NF) and close (its
  // completion).
  // Evacuations open without an event of their own, so their completions
  // only ever *close*; the depth is clamped at zero to absorb that.
  std::map<std::size_t, std::size_t> depth;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ControlEvent& event = events[i];
    std::size_t& open = depth[event.chain];
    switch (event.kind) {
      case ControlEvent::Kind::kTriggered:
        if (open > 0) {
          add(report, "single-flight",
              format("event %zu: chain %zu triggered at %.4f ms while %zu "
                     "action(s) are still in flight",
                     i, event.chain, event.at.ms(), open));
        }
        break;
      case ControlEvent::Kind::kPlanned:
      case ControlEvent::Kind::kScaleIn:
        if (open > 0) {
          add(report, "single-flight",
              format("event %zu: chain %zu opened a second action (%s) at "
                     "%.4f ms with %zu still in flight",
                     i, event.chain, std::string{to_string(event.kind)}.c_str(),
                     event.at.ms(), open));
        }
        ++open;
        break;
      case ControlEvent::Kind::kScaleOut:
        // A scale-out that names the NF it moves starts a real transfer; a
        // one-slot rack, with nowhere to move one, only records the request.
        if (!event.moved_nfs.empty()) {
          if (open > 0) {
            add(report, "single-flight",
                format("event %zu: chain %zu started a scale-out move at "
                       "%.4f ms with %zu action(s) still in flight",
                       i, event.chain, event.at.ms(), open));
          }
          ++open;
        }
        break;
      case ControlEvent::Kind::kMigrated:
      case ControlEvent::Kind::kCrossServerMove:
      case ControlEvent::Kind::kCrossRackMove:
        if (open > 0) {
          --open;
        }
        break;
      case ControlEvent::Kind::kInfeasible:
        if (open > 0 && is_completion(event)) {
          --open;
        }
        break;
      case ControlEvent::Kind::kEvacuated:
        break;  // opened invisibly by on_server_failed; nothing to match
    }
  }
}

}  // namespace

std::string InvariantReport::describe() const {
  if (violations.empty()) {
    return "all invariants hold";
  }
  std::string out;
  for (const auto& violation : violations) {
    out += violation.invariant + ": " + violation.detail + "\n";
  }
  return out;
}

InvariantReport check_invariants(const RunResult& result) {
  InvariantReport report;
  const ScenarioSpec& spec = result.spec;

  for (const VariantResult& vr : result.variants) {
    for (std::size_t r = 0; r < vr.runs.size(); ++r) {
      check_conservation(vr.runs[r],
                         format("variant '%s' run %zu", vr.label.c_str(), r),
                         report);
    }
    check_nf_state(vr.chain_before, vr.chain_after,
                   format("variant '%s'", vr.label.c_str()), report);
  }

  if (result.timeline) {
    const TimelineResult& tl = *result.timeline;
    check_conservation(tl.metrics, "timeline metrics", report);
    check_nf_state(tl.chain_before, tl.chain_after, "timeline chain", report);
    check_events(tl.events, spec.duration_ms, spec.cluster.cooldown_ms, report);
  }

  if (result.deployment) {
    for (const DeploymentChainResult& cr : result.deployment->chains) {
      check_nf_state(cr.chain_before, cr.chain_after,
                     format("deployment chain '%s'", cr.name.c_str()), report);
    }
  }

  if (result.cluster) {
    const ClusterResult& cr = *result.cluster;
    for (const ClusterChainResult& chain : cr.chains) {
      check_conservation(chain.metrics,
                         format("chain '%s'", chain.name.c_str()), report);
      check_nf_state(chain.chain_before, chain.chain_after,
                     format("chain '%s'", chain.name.c_str()), report);
    }
    check_conservation(cr.fleet, "fleet aggregate", report);
    if (!cr.conserved) {
      add(report, "conservation",
          "cluster report's own conservation flag is false");
    }
    check_events(cr.events, spec.duration_ms, spec.cluster.cooldown_ms, report);
    // shard-totals: every packet the fleet accounts for is accounted for
    // by exactly one shard (a one-rack run has one), so a sharded run
    // hides nothing in the fabric.
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t in_flight = 0;
    for (const ClusterShardResult& shard : cr.shard_totals) {
      injected += shard.injected;
      delivered += shard.delivered;
      dropped += shard.dropped;
      in_flight += shard.in_flight_at_end;
    }
    if (cr.shard_totals.size() != cr.shards) {
      add(report, "shard-totals",
          format("report has %zu shard entries for %zu shards",
                 cr.shard_totals.size(), cr.shards));
    }
    if (injected != cr.fleet.injected || delivered != cr.fleet.delivered ||
        dropped != cr.fleet.dropped_total() ||
        in_flight != cr.fleet.in_flight_at_end) {
      add(report, "shard-totals",
          format("per-shard sums (injected %llu, delivered %llu, dropped "
                 "%llu, in-flight %llu) != fleet totals (injected %llu, "
                 "delivered %llu, dropped %llu, in-flight %llu)",
                 static_cast<unsigned long long>(injected),
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(dropped),
                 static_cast<unsigned long long>(in_flight),
                 static_cast<unsigned long long>(cr.fleet.injected),
                 static_cast<unsigned long long>(cr.fleet.delivered),
                 static_cast<unsigned long long>(cr.fleet.dropped_total()),
                 static_cast<unsigned long long>(cr.fleet.in_flight_at_end)));
    }
  }

  return report;
}

}  // namespace pam
