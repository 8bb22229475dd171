#include "experiment/scenario_fuzz.hpp"

#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "common/strings.hpp"
#include "experiment/invariants.hpp"
#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_runner.hpp"

namespace pam {

namespace {

// --- digest -----------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char byte : bytes) {
    h ^= static_cast<unsigned char>(byte);
    h *= kFnvPrime;
  }
  return h;
}

// --- generation -------------------------------------------------------------

constexpr const char* kNfTypes[] = {"Firewall",     "Logger", "Monitor",
                                    "LoadBalancer", "NAT",    "DPI",
                                    "RateLimiter",  "Encryptor"};

/// A random valid chain-spec string: wire ingress, 1..3 nodes on either
/// device, wire or host egress.  Every NF type has nonzero capacity on both
/// devices (capacity table), so any placement simulates.
std::string random_chain_text(Rng& rng) {
  const std::size_t n = 1 + rng.bounded(3);
  std::string nodes;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      nodes += " ";
    }
    nodes += rng.chance(0.6) ? "S:" : "C:";
    nodes += kNfTypes[rng.bounded(8)];
  }
  return "wire | " + nodes + (rng.chance(0.5) ? " | wire" : " | host");
}

/// Gbps on a 0.25 grid so fmt_double round-trips exactly.
double random_gbps(Rng& rng, double lo, double hi) {
  const auto steps = static_cast<std::uint64_t>((hi - lo) / 0.25);
  return lo + 0.25 * static_cast<double>(rng.bounded(steps + 1));
}

/// Integer milliseconds in [lo, hi].
double random_ms(Rng& rng, double lo, double hi) {
  return lo + static_cast<double>(
                  rng.bounded(static_cast<std::uint64_t>(hi - lo) + 1));
}

/// A random offered-load profile spanning all four RateSpec kinds, with
/// every knot inside the run horizon.
RateSpec random_rate(Rng& rng, double duration_ms) {
  RateSpec rate;
  switch (rng.bounded(4)) {
    case 0:
      rate.kind = RateSpec::Kind::kConstant;
      rate.a = random_gbps(rng, 0.5, 2.5);
      break;
    case 1:
      rate.kind = RateSpec::Kind::kStep;
      rate.a = random_gbps(rng, 0.5, 1.5);
      rate.b = rate.a + random_gbps(rng, 1.0, 2.0);
      rate.at_ms = random_ms(rng, 1.0, duration_ms - 2.0);
      break;
    case 2:
      rate.kind = RateSpec::Kind::kSinusoid;
      rate.a = random_gbps(rng, 1.0, 2.0);
      rate.b = random_gbps(rng, 0.5, 1.5);
      rate.period_ms = random_ms(rng, 4.0, duration_ms);
      break;
    default:
      rate.kind = RateSpec::Kind::kFlash;
      rate.a = random_gbps(rng, 0.5, 1.25);
      rate.b = rate.a + random_gbps(rng, 1.5, 2.5);
      rate.at_ms = random_ms(rng, 1.0, duration_ms / 2.0);
      rate.for_ms = random_ms(rng, 1.0, duration_ms / 2.0);
      break;
  }
  return rate;
}

PolicyConfig random_policy(Rng& rng) {
  constexpr const char* kPolicies[] = {"pam", "naive", "naive-min"};
  return PolicyConfig{kPolicies[rng.bounded(3)], {}};
}

void random_loop_knobs(Rng& rng, ClusterSpec& knobs) {
  constexpr double kTriggers[] = {0.8, 0.9, 1.0};
  knobs.trigger_utilization = kTriggers[rng.bounded(3)];
  knobs.period_ms = rng.chance(0.5) ? 2.0 : 5.0;
  knobs.first_check_ms = knobs.period_ms;
  knobs.cooldown_ms = rng.chance(0.5) ? 4.0 : 10.0;
}

void generate_fleet(Rng& rng, ScenarioSpec& spec) {
  spec.cluster.servers = 2 + rng.bounded(3);
  spec.cluster.rebalance =
      spec.kind == ScenarioKind::kFailure || rng.chance(0.8);
  spec.cluster.inter_server_us = rng.chance(0.5) ? 20.0 : 50.0;
  random_loop_knobs(rng, spec.cluster);
  spec.policy = random_policy(rng);

  const std::size_t chains = 1 + rng.bounded(3);
  for (std::size_t i = 0; i < chains; ++i) {
    ChainDecl decl;
    decl.name = format("t%zu", i);
    decl.spec = random_chain_text(rng);
    // An occasional hot tenant so trigger/scale-out/evacuation paths see
    // real traffic, not just idle slots.
    decl.offered_gbps =
        rng.chance(0.25) ? 2.75 : random_gbps(rng, 0.5, 2.0);
    if (rng.chance(0.5)) {
      decl.server = static_cast<std::int64_t>(rng.bounded(spec.cluster.servers));
    }
    if (spec.kind == ScenarioKind::kChurn) {
      if (rng.chance(0.6)) {
        decl.arrive_ms = random_ms(rng, 0.0, spec.duration_ms / 2.0);
      }
      if (rng.chance(0.6)) {
        decl.depart_ms =
            decl.arrive_ms + random_ms(rng, 1.0, spec.duration_ms / 2.0);
      }
      if (rng.chance(0.5)) {
        decl.has_rate = true;
        decl.rate = random_rate(rng, spec.duration_ms);
      }
    }
    spec.chains.push_back(std::move(decl));
  }

  if (spec.kind == ScenarioKind::kFailure) {
    const std::size_t events = 1 + rng.bounded(2);
    for (std::size_t i = 0; i < events; ++i) {
      FailureEvent ev;
      ev.server = rng.bounded(spec.cluster.servers);
      ev.at_ms = random_ms(rng, 1.0, spec.duration_ms - 2.0);
      if (rng.chance(0.5)) {
        ev.recover_ms = ev.at_ms + random_ms(rng, 1.0, spec.duration_ms);
      }
      spec.failures.push_back(ev);
    }
  }

  if (spec.kind == ScenarioKind::kHostile) {
    const std::size_t points = 1 + rng.bounded(2);
    for (std::size_t i = 0; i < points; ++i) {
      LinkTraceSpec::FabricPoint point;
      point.at_ms = random_ms(rng, 1.0, spec.duration_ms - 1.0);
      point.delay_us = 20.0 + 20.0 * static_cast<double>(rng.bounded(10));
      spec.link.fabric.push_back(point);
    }
    const std::size_t fades = rng.bounded(3);
    constexpr double kSpeeds[] = {0.4, 0.55, 0.7};
    for (std::size_t i = 0; i < fades; ++i) {
      LinkTraceSpec::SlotFade fade;
      fade.server = rng.bounded(spec.cluster.servers);
      fade.at_ms = random_ms(rng, 1.0, spec.duration_ms - 1.0);
      fade.speed = kSpeeds[rng.bounded(3)];
      spec.link.fades.push_back(fade);
    }
  }
}

}  // namespace

ScenarioSpec generate_random_spec(Rng& rng, std::size_t index, bool quick) {
  constexpr ScenarioKind kKinds[] = {
      ScenarioKind::kCompare, ScenarioKind::kCapacity,
      ScenarioKind::kTimeline, ScenarioKind::kDeployment,
      ScenarioKind::kCluster, ScenarioKind::kChurn,
      ScenarioKind::kFailure, ScenarioKind::kHostile};

  ScenarioSpec spec;
  spec.kind = kKinds[rng.bounded(8)];
  spec.name = format("fuzz-%zu", index);
  spec.seed = rng.uniform_u64(1, 1u << 20);
  spec.duration_ms = quick ? 6.0 + 2.0 * static_cast<double>(rng.bounded(5))
                           : 20.0 + 5.0 * static_cast<double>(rng.bounded(7));
  spec.warmup_ms = static_cast<double>(rng.bounded(3));
  spec.traffic.arrival =
      rng.chance(0.5) ? ArrivalProcess::kPoisson : ArrivalProcess::kCbr;
  switch (rng.bounded(3)) {
    case 0: {
      constexpr std::size_t kSizes[] = {64, 256, 512, 1024};
      spec.traffic.sizes.kind = SizeSpec::Kind::kFixed;
      spec.traffic.sizes.fixed = kSizes[rng.bounded(4)];
      break;
    }
    case 1:
      spec.traffic.sizes.kind = SizeSpec::Kind::kImix;
      break;
    default:
      spec.traffic.sizes.kind = SizeSpec::Kind::kUniform;
      spec.traffic.sizes.lo = 64;
      spec.traffic.sizes.hi = 1500;
      break;
  }

  switch (spec.kind) {
    case ScenarioKind::kCompare: {
      spec.chain = random_chain_text(rng);
      spec.plan_rate_gbps = random_gbps(rng, 1.0, 3.0);
      const double roll = rng.next_double();
      spec.measure = roll < 0.5   ? MeasureMode::kAnalytic
                     : roll < 0.8 ? MeasureMode::kDes
                                  : MeasureMode::kBoth;
      const std::size_t variants = 1 + rng.bounded(3);
      for (std::size_t v = 0; v < variants; ++v) {
        VariantSpec variant;
        variant.label = format("v%zu", v);
        variant.policy = random_policy(rng);
        if (rng.chance(0.3)) {
          variant.measure_rate.kind = MeasureRate::Kind::kGbps;
          variant.measure_rate.value = random_gbps(rng, 0.5, 2.5);
        }
        spec.variants.push_back(std::move(variant));
      }
      break;
    }
    case ScenarioKind::kCapacity: {
      constexpr NfType kTypes[] = {NfType::kFirewall, NfType::kMonitor,
                                   NfType::kDpi, NfType::kLogger};
      spec.capacity.nfs.push_back(kTypes[rng.bounded(4)]);
      spec.capacity.locations.push_back(
          rng.chance(0.5) ? Location::kSmartNic : Location::kCpu);
      if (rng.chance(0.3)) {
        spec.capacity.locations.push_back(
            spec.capacity.locations.front() == Location::kSmartNic
                ? Location::kCpu
                : Location::kSmartNic);
      }
      spec.capacity.search_iters = 2 + static_cast<int>(rng.bounded(2));
      spec.capacity.size_bytes = rng.chance(0.5) ? 256 : 512;
      break;
    }
    case ScenarioKind::kTimeline: {
      spec.chain = random_chain_text(rng);
      spec.traffic.rate = random_rate(rng, spec.duration_ms);
      spec.policy = random_policy(rng);
      random_loop_knobs(rng, spec.cluster);
      if (rng.chance(0.3)) {
        spec.scale_in = PolicyConfig{"scale-in", {}};
        spec.cluster.scale_in_below = 0.3;
      }
      break;
    }
    case ScenarioKind::kDeployment: {
      const std::size_t chains = 1 + rng.bounded(3);
      for (std::size_t i = 0; i < chains; ++i) {
        ChainDecl decl;
        decl.name = format("t%zu", i);
        decl.spec = random_chain_text(rng);
        decl.offered_gbps = random_gbps(rng, 0.5, 2.0);
        spec.chains.push_back(std::move(decl));
      }
      break;
    }
    case ScenarioKind::kCluster:
    case ScenarioKind::kChurn:
    case ScenarioKind::kFailure:
    case ScenarioKind::kHostile:
      generate_fleet(rng, spec);
      break;
  }
  return spec;
}

namespace {

/// One generate->round-trip->execute->audit pass.
struct CaseOutcome {
  bool failed = false;
  bool parse_failed = false;  ///< the failure is in parse/round-trip, not a run
  std::string detail;
  std::uint64_t digest = kFnvOffset;  ///< over scenario text + metrics JSON
};

CaseOutcome run_case(const ScenarioSpec& spec) {
  CaseOutcome out;
  const std::string text = spec.to_text();
  out.digest = fnv1a(out.digest, text);

  auto reparsed = ScenarioSpec::parse(text, "<fuzz>");
  if (!reparsed) {
    out.failed = out.parse_failed = true;
    out.detail = "canonical text failed to parse: " + reparsed.error().what();
    return out;
  }
  if (!(reparsed.value() == spec)) {
    out.failed = out.parse_failed = true;
    out.detail = "round-trip mismatch: parse(to_text()) differs from the spec";
    return out;
  }

  const ScenarioRunner runner;
  auto run = runner.run(spec);
  if (!run) {
    out.failed = true;
    out.detail = "runner error: " + run.error().what();
    return out;
  }

  const InvariantReport report = check_invariants(run.value());
  if (!report.ok()) {
    out.failed = true;
    out.detail = report.describe();
    return out;
  }

  std::ostringstream json;
  write_metrics_json(run.value(), json);
  out.digest = fnv1a(out.digest, json.str());
  return out;
}

/// Whether `candidate` reproduces the original failure class.  Matching the
/// parse/run split keeps the shrinker from "simplifying" a run failure into
/// an unrelated validation error.
bool still_fails(const ScenarioSpec& candidate, bool parse_failed) {
  const CaseOutcome outcome = run_case(candidate);
  return outcome.failed && outcome.parse_failed == parse_failed;
}

/// Greedy one-at-a-time shrink: drop chains, variants, failure events, link
/// points and churn decorations while the failure keeps reproducing.
ScenarioSpec shrink(ScenarioSpec spec, bool parse_failed) {
  int budget = 64;  // candidate evaluations, not accepted edits
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    std::vector<std::function<bool(ScenarioSpec&)>> edits;
    for (std::size_t i = 0; i < spec.chains.size() && spec.chains.size() > 1; ++i) {
      edits.emplace_back([i](ScenarioSpec& s) {
        s.chains.erase(s.chains.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
    }
    for (std::size_t i = 0; i < spec.variants.size() && spec.variants.size() > 1;
         ++i) {
      edits.emplace_back([i](ScenarioSpec& s) {
        s.variants.erase(s.variants.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
    }
    for (std::size_t i = 0; i < spec.failures.size() && spec.failures.size() > 1;
         ++i) {
      edits.emplace_back([i](ScenarioSpec& s) {
        s.failures.erase(s.failures.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
    }
    const std::size_t link_points = spec.link.fabric.size() + spec.link.fades.size();
    for (std::size_t i = 0; i < spec.link.fabric.size() && link_points > 1; ++i) {
      edits.emplace_back([i](ScenarioSpec& s) {
        s.link.fabric.erase(s.link.fabric.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
    }
    for (std::size_t i = 0; i < spec.link.fades.size() && link_points > 1; ++i) {
      edits.emplace_back([i](ScenarioSpec& s) {
        s.link.fades.erase(s.link.fades.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
    }
    for (std::size_t i = 0; i < spec.chains.size(); ++i) {
      if (spec.chains[i].has_rate) {
        edits.emplace_back([i](ScenarioSpec& s) {
          s.chains[i].has_rate = false;
          s.chains[i].rate = RateSpec{};
          return true;
        });
      }
      if (spec.chains[i].arrive_ms != 0.0 || spec.chains[i].depart_ms >= 0.0) {
        edits.emplace_back([i](ScenarioSpec& s) {
          s.chains[i].arrive_ms = 0.0;
          s.chains[i].depart_ms = -1.0;
          return true;
        });
      }
    }
    if (!spec.notes.empty() || !spec.description.empty()) {
      edits.emplace_back([](ScenarioSpec& s) {
        s.notes.clear();
        s.description.clear();
        return true;
      });
    }
    if (spec.scale_in.name != "none") {
      edits.emplace_back([](ScenarioSpec& s) {
        s.scale_in = PolicyConfig{"none", {}};
        s.cluster.scale_in_below = 0.0;
        return true;
      });
    }

    for (const auto& edit : edits) {
      if (budget <= 0) {
        break;
      }
      ScenarioSpec candidate = spec;
      if (!edit(candidate)) {
        continue;
      }
      --budget;
      if (still_fails(candidate, parse_failed)) {
        spec = std::move(candidate);
        progress = true;
        break;  // restart with fresh indices
      }
    }
  }
  return spec;
}

}  // namespace

Result<FuzzOutcome> run_fuzz_campaign(const FuzzOptions& options,
                                      std::FILE* out) {
  if (out == nullptr) {
    out = stdout;
  }
  FuzzOutcome outcome;
  outcome.digest = kFnvOffset;

  for (std::size_t i = 0; i < options.count; ++i) {
    // One derived stream per case: case i's spec never depends on how many
    // cases ran before it.
    Rng rng{Rng::derive(options.seed, i)};
    const ScenarioSpec spec = generate_random_spec(rng, i, options.quick);
    const CaseOutcome result = run_case(spec);
    ++outcome.executed;
    outcome.digest = fnv1a(
        outcome.digest, format("%016llx", static_cast<unsigned long long>(
                                              result.digest)));
    if (options.verbose) {
      std::fprintf(out, "case %3zu [%-10s] %s\n", i,
                   std::string{to_string(spec.kind)}.c_str(),
                   result.failed ? "FAIL" : "ok");
    }
    if (!result.failed) {
      continue;
    }

    ++outcome.failures;
    outcome.first_failure_detail = result.detail;
    std::fprintf(out, "case %zu (%s) FAILED:\n%s\n", i,
                 std::string{to_string(spec.kind)}.c_str(),
                 result.detail.c_str());
    const ScenarioSpec minimal = shrink(spec, result.parse_failed);
    const std::string path =
        options.dump_dir +
        format("/fuzz-fail-seed%llu-case%zu.scn",
               static_cast<unsigned long long>(options.seed), i);
    std::ofstream file{path};
    if (!file) {
      return Error{format("cannot write reproducer to '%s'", path.c_str())};
    }
    file << minimal.to_text();
    file.close();
    outcome.first_failure_path = path;
    std::fprintf(out, "minimal reproducer written to %s\n", path.c_str());
    break;
  }

  std::fprintf(out, "fuzz: %zu/%zu case(s) ok | digest %016llx\n",
               outcome.executed - outcome.failures, options.count,
               static_cast<unsigned long long>(outcome.digest));
  return outcome;
}

}  // namespace pam
