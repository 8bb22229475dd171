// pam_exp — the experiment-runner CLI.
//
//   pam_exp list                          # bundled scenario presets
//   pam_exp policies                      # registered migration policies
//   pam_exp run <scenario>... [options]   # execute scenarios
//   pam_exp sweep <scenario> --factors LO:HI:STEPS [options]
//   pam_exp fuzz [--seed N] [--count N] [--quick] [--dump-dir DIR]
//                                         # invariant-checking scenario fuzzer
//
// <scenario> is a bundled preset name (e.g. fig2-latency) or a path to a
// .scn file.  Options:
//   --json[=FILE]   emit JSON metrics (to stdout when FILE is omitted or -);
//                   multiple scenarios / sweep points produce a JSON array
//   --quiet         suppress the human-readable report
//   --verbose       include policy decision traces in the report
//   --dir DIR       scenario directory (default: $PAM_SCENARIOS_DIR,
//                   ./scenarios, or the source-tree scenarios/)
//   --policy NAME[:key=val,...]
//                   (run/sweep) re-point the scenario at a registered
//                   policy: replaces the [policy] default, clears per-chain
//                   overrides, and re-points every compare variant — same
//                   registry path as the .scn surface, no side channel
//   --quick         (fuzz) short DES horizons for CI smoke runs
//   --check-invariants
//                   (run) audit every executed scenario with the invariant
//                   checker (experiment/invariants.hpp); violations fail
//                   the run with one diagnostic line each
//   --threads N     (run) worker threads for sharded scenarios ([cluster]
//                   shards > 1); overrides the spec's threads= key.  Never
//                   changes results — only wall-clock time.
//   --seed N / --count N / --dump-dir DIR
//                   (fuzz) campaign seed, number of generated cases, and
//                   where a shrunk failing .scn reproducer is written
//
// Exit status: 0 on success, 1 on any configuration or I/O error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "control/policy_registry.hpp"
#include "experiment/invariants.hpp"
#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_fuzz.hpp"
#include "experiment/scenario_library.hpp"
#include "experiment/scenario_runner.hpp"

namespace {

using namespace pam;

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: pam_exp list [--dir DIR]\n"
               "       pam_exp policies\n"
               "       pam_exp run <scenario>... [--json[=FILE]] [--quiet] "
               "[--verbose] [--policy NAME[:key=val,...]] [--threads N] "
               "[--check-invariants] [--dir DIR]\n"
               "       pam_exp sweep <scenario> --factors LO:HI:STEPS "
               "[--json[=FILE]] [--quiet] [--policy NAME[:key=val,...]] "
               "[--dir DIR]\n"
               "       pam_exp fuzz [--seed N] [--count N] [--quick] "
               "[--dump-dir DIR] [--verbose]\n"
               "\n"
               "<scenario> is a bundled preset name (see 'pam_exp list') or a "
               "path to a .scn file.\n"
               "--policy re-runs any preset under a registered policy (see "
               "'pam_exp policies').\n");
  return out == stdout ? 0 : 1;
}

struct Options {
  std::vector<std::string> scenarios;
  bool json = false;
  std::string json_file;  ///< empty or "-" == stdout
  bool quiet = false;
  bool verbose = false;
  std::string dir;
  std::string factors;
  std::string policy;  ///< --policy NAME[:key=val,...]; empty = none
  bool quick = false;  ///< --quick (fuzz): shrink the work
  bool check_invariants = false;  ///< --check-invariants (run)
  std::size_t threads = 0;        ///< --threads (run); 0 = use the spec's
  std::uint64_t seed = 1;         ///< --seed (fuzz)
  std::size_t count = 50;         ///< --count (fuzz)
  std::string dump_dir = ".";     ///< --dump-dir (fuzz)
};

bool parse_args(int argc, char** argv, int first, Options& out) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      out.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      out.json = true;
      out.json_file = std::string{arg.substr(7)};
    } else if (arg == "--quiet") {
      out.quiet = true;
    } else if (arg == "--quick") {
      out.quick = true;
    } else if (arg == "--verbose") {
      out.verbose = true;
    } else if (arg == "--dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --dir needs a value\n");
        return false;
      }
      out.dir = argv[++i];
    } else if (arg == "--factors") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --factors needs LO:HI:STEPS\n");
        return false;
      }
      out.factors = argv[++i];
    } else if (arg == "--policy") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --policy needs NAME[:key=val,...]\n");
        return false;
      }
      out.policy = argv[++i];
    } else if (arg == "--check-invariants") {
      out.check_invariants = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --threads needs a value\n");
        return false;
      }
      out.threads = std::strtoull(argv[++i], nullptr, 10);
      if (out.threads == 0) {
        std::fprintf(stderr, "error: --threads must be positive\n");
        return false;
      }
    } else if (arg == "--seed") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --seed needs a value\n");
        return false;
      }
      out.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--count") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --count needs a value\n");
        return false;
      }
      out.count = std::strtoull(argv[++i], nullptr, 10);
      if (out.count == 0) {
        std::fprintf(stderr, "error: --count must be positive\n");
        return false;
      }
    } else if (arg == "--dump-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --dump-dir needs a value\n");
        return false;
      }
      out.dump_dir = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return false;
    } else {
      out.scenarios.emplace_back(arg);
    }
  }
  if (!out.dir.empty()) {
    // The library reads the environment; propagate --dir through it so
    // bundled-name resolution follows the flag.
    setenv("PAM_SCENARIOS_DIR", out.dir.c_str(), 1);
  }
  return true;
}

Result<ScenarioSpec> load(const std::string& ref) {
  // A path if it points at a readable file or names one explicitly;
  // otherwise a bundled preset name.
  if (ref.find('/') != std::string::npos ||
      (ref.size() > 4 && ref.compare(ref.size() - 4, 4, ".scn") == 0)) {
    return load_scenario_file(ref);
  }
  return load_bundled_scenario(ref);
}

/// Runs every spec; prints reports unless quiet; emits a JSON object (one
/// result) or array (several) when requested.
int run_specs(const std::vector<ScenarioSpec>& specs, const Options& opt) {
  const ScenarioRunner runner;
  std::vector<RunResult> results;
  for (const auto& spec : specs) {
    auto result = runner.run(spec, opt.threads);
    if (!result) {
      std::fprintf(stderr, "error: %s\n", result.error().what().c_str());
      return 1;
    }
    if (!opt.quiet) {
      print_report(result.value(), opt.verbose);
      std::printf("\n");
    }
    if (opt.check_invariants) {
      const InvariantReport report = check_invariants(result.value());
      if (!report.ok()) {
        std::fprintf(stderr, "error: scenario '%s' violates invariants:\n%s",
                     result.value().spec.name.c_str(),
                     report.describe().c_str());
        return 1;
      }
      if (!opt.quiet) {
        std::printf("invariants: all hold for '%s'\n\n",
                    result.value().spec.name.c_str());
      }
    }
    results.push_back(std::move(result).value());
  }

  if (opt.json) {
    std::ofstream file;
    const bool to_stdout = opt.json_file.empty() || opt.json_file == "-";
    if (!to_stdout) {
      file.open(opt.json_file);
      if (!file) {
        std::fprintf(stderr, "error: cannot write '%s'\n", opt.json_file.c_str());
        return 1;
      }
    }
    std::ostream& out = to_stdout ? std::cout : file;
    if (results.size() == 1) {
      write_metrics_json(results.front(), out);
    } else {
      out << "[\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        write_metrics_json(results[i], out);
        if (i + 1 < results.size()) {
          out << ",\n";
        }
      }
      out << "]\n";
    }
    if (!to_stdout && !opt.quiet) {
      std::printf("wrote JSON metrics to %s\n", opt.json_file.c_str());
    }
  }
  return 0;
}

int cmd_list(const Options& /*opt*/) {
  const std::string dir = default_scenario_dir();
  auto names = list_scenarios(dir);
  if (!names) {
    std::fprintf(stderr, "error: %s\n", names.error().what().c_str());
    return 1;
  }
  std::printf("scenarios in %s:\n", dir.c_str());
  std::size_t width = 0;
  for (const auto& name : names.value()) {
    width = std::max(width, name.size());
  }
  for (const auto& name : names.value()) {
    auto spec = load_bundled_scenario(name);
    if (spec) {
      // Kind next to the name so e.g. the cluster presets are discoverable
      // without opening each file.
      std::printf("  %-*s [%-10s] %s\n", static_cast<int>(width), name.c_str(),
                  std::string{to_string(spec.value().kind)}.c_str(),
                  spec.value().description.c_str());
    } else {
      std::printf("  %-*s (unparseable: %s)\n", static_cast<int>(width),
                  name.c_str(), spec.error().what().c_str());
    }
  }
  return 0;
}

int cmd_policies(const Options& /*opt*/) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  std::printf("registered migration policies:\n");
  for (const auto& name : registry.names()) {
    const PolicyInfo* info = registry.find(name);
    std::printf("  %-10s %s\n", name.c_str(), info->summary.c_str());
    for (const auto& param : info->params) {
      std::printf("             %s = %g in [%g, %g]  (%s)\n", param.key.c_str(),
                  param.default_value, param.min_value, param.max_value,
                  param.description.c_str());
    }
  }
  std::printf(
      "\nselect with [policy]/[variant]/[chain] keys in a .scn file or\n"
      "'pam_exp run <scenario> --policy NAME[:key=val,...]'.\n");
  return 0;
}

/// Resolves --policy through the registry up front so a typo fails before
/// any scenario runs, listing what is registered.  Returns false on error;
/// leaves `out` empty when the flag was not given.
bool resolve_policy_override(const Options& opt, std::optional<PolicyConfig>& out) {
  if (opt.policy.empty()) {
    return true;
  }
  auto parsed = PolicyConfig::parse(opt.policy);
  if (!parsed) {
    std::fprintf(stderr, "error: --policy: %s\n", parsed.error().what().c_str());
    return false;
  }
  auto valid = PolicyRegistry::instance().validate(parsed.value());
  if (!valid) {
    std::fprintf(stderr, "error: --policy: %s\n", valid.error().what().c_str());
    return false;
  }
  out = std::move(parsed).value();
  return true;
}

/// Capacity searches take no migration policy and deployment runs use the
/// multi-chain planner, so a --policy override would silently change
/// nothing there — reject instead.
bool policy_override_applies(const ScenarioSpec& spec,
                             const std::optional<PolicyConfig>& override_policy) {
  if (!override_policy) {
    return true;
  }
  if (spec.kind == ScenarioKind::kCapacity ||
      spec.kind == ScenarioKind::kDeployment) {
    std::fprintf(stderr, "error: --policy does not apply to %s scenarios ('%s')\n",
                 std::string{to_string(spec.kind)}.c_str(), spec.name.c_str());
    return false;
  }
  return true;
}

int cmd_run(const Options& opt) {
  if (opt.scenarios.empty()) {
    std::fprintf(stderr, "error: 'run' needs at least one scenario\n");
    return usage(stderr);
  }
  std::optional<PolicyConfig> override_policy;
  if (!resolve_policy_override(opt, override_policy)) {
    return 1;
  }
  std::vector<ScenarioSpec> specs;
  for (const auto& ref : opt.scenarios) {
    auto spec = load(ref);
    if (!spec) {
      std::fprintf(stderr, "error: %s\n", spec.error().what().c_str());
      return 1;
    }
    if (!policy_override_applies(spec.value(), override_policy)) {
      return 1;
    }
    specs.push_back(override_policy ? spec.value().with_policy(*override_policy)
                                    : std::move(spec).value());
  }
  return run_specs(specs, opt);
}

int cmd_sweep(const Options& opt) {
  if (opt.scenarios.size() != 1) {
    std::fprintf(stderr, "error: 'sweep' takes exactly one scenario\n");
    return usage(stderr);
  }
  double lo = 0.0;
  double hi = 0.0;
  int steps = 0;
  if (opt.factors.empty() ||
      std::sscanf(opt.factors.c_str(), "%lf:%lf:%d", &lo, &hi, &steps) != 3 ||
      steps < 2 || lo <= 0.0 || hi < lo) {
    std::fprintf(stderr,
                 "error: sweep needs --factors LO:HI:STEPS with 0 < LO <= HI "
                 "and STEPS >= 2 (e.g. 0.5:2.0:7)\n");
    return 1;
  }
  std::optional<PolicyConfig> override_policy;
  if (!resolve_policy_override(opt, override_policy)) {
    return 1;
  }
  auto spec = load(opt.scenarios.front());
  if (!spec) {
    std::fprintf(stderr, "error: %s\n", spec.error().what().c_str());
    return 1;
  }
  if (!policy_override_applies(spec.value(), override_policy)) {
    return 1;
  }
  if (override_policy) {
    spec = spec.value().with_policy(*override_policy);
  }
  if (spec.value().kind == ScenarioKind::kCapacity) {
    // Capacity searches derive their rates from the capacity table, which
    // scaled() cannot touch — a sweep would emit N identical results.
    std::fprintf(stderr,
                 "error: 'sweep' does not apply to capacity scenarios "
                 "(their rates come from the capacity table, not the spec)\n");
    return 1;
  }
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < steps; ++i) {
    const double factor =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(steps - 1);
    ScenarioSpec scaled = spec.value().scaled(factor);
    scaled.name = format("%s@x%.3g", spec.value().name.c_str(), factor);
    specs.push_back(std::move(scaled));
  }
  return run_specs(specs, opt);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage(stderr);
  }
  const std::string_view cmd = argv[1];
  Options opt;
  if (!parse_args(argc, argv, 2, opt)) {
    return 1;
  }
  if (cmd == "list" || cmd == "policies") {
    if (!opt.policy.empty()) {
      // Catch the typo'd subcommand instead of silently ignoring the flag.
      std::fprintf(stderr, "error: --policy only applies to 'run' and 'sweep'\n");
      return 1;
    }
    return cmd == "list" ? cmd_list(opt) : cmd_policies(opt);
  }
  if (cmd == "run") {
    return cmd_run(opt);
  }
  if (cmd == "sweep") {
    return cmd_sweep(opt);
  }
  if (cmd == "fuzz") {
    FuzzOptions fuzz;
    fuzz.seed = opt.seed;
    fuzz.count = opt.count;
    fuzz.quick = opt.quick;
    fuzz.dump_dir = opt.dump_dir;
    fuzz.verbose = opt.verbose;
    auto outcome = run_fuzz_campaign(fuzz);
    if (!outcome) {
      std::fprintf(stderr, "error: %s\n", outcome.error().what().c_str());
      return 1;
    }
    return outcome.value().failures == 0 ? 0 : 1;
  }
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    return usage(stdout);
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
  return usage(stderr);
}
