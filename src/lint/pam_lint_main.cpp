// pam_lint CLI — the determinism and architecture gate
// (docs/STATIC_ANALYSIS.md).
//
//   pam_lint                          # lint src/ under the cwd, human report
//   pam_lint --json=lint.json        # machine-readable pam-lint/v1
//   pam_lint --root /path/to/repo src/nf src/sim/fcfs_server.cpp
//   pam_lint --list-rules
//   pam_lint graph --dot             # layer DAG + observed include edges
//   pam_lint metrics                 # pam-lint-metrics/v1 JSON
//
// Exit code: 0 when clean, 1 on violations/stale suppressions, 2 on usage
// or I/O errors.  `graph` and `metrics` are informational: they exit 0
// unless the file set cannot be read.  CI runs the gate hard on every
// push (the `lint` job) and uploads the graph + metrics artifacts.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lint/include_graph.hpp"
#include "lint/lint.hpp"
#include "lint/metrics.hpp"
#include "lint/source_view.hpp"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: pam_lint [graph|metrics] [options] [path...]\n"
      "\n"
      "Lints PAM sources for determinism and layering hazards\n"
      "(rules A001..A003, D001..D004, D006, X001; docs/STATIC_ANALYSIS.md).\n"
      "Copy checks live in clang-tidy.\n"
      "\n"
      "subcommands:\n"
      "  (none)                 run the lint gate\n"
      "  graph                  print the layer DAG and observed include\n"
      "                         edges (--dot for Graphviz; ARCHITECTURE.md's\n"
      "                         diagram is regenerated from it)\n"
      "  metrics                emit pam-lint-metrics/v1 JSON\n"
      "                         (LoC, function budget, suppressions, fan-in/out)\n"
      "\n"
      "options:\n"
      "  --root DIR             repo root (default: current directory)\n"
      "  --json[=FILE]          emit JSON (default: stdout)\n"
      "  --dot[=FILE]           graph only: Graphviz output\n"
      "  --list-rules           print the rule catalogue and exit\n"
      "  -h, --help             this text\n"
      "\n"
      "paths are root-relative files or directories; the default file set\n"
      "is everything under src/.\n",
      out);
}

/// Writes `emit(stream)` to stdout when `file` is empty/"-", else to file.
template <typename Emit>
int write_to(const std::string& file, Emit emit) {
  if (file.empty() || file == "-") {
    emit(std::cout);
    return 0;
  }
  std::ofstream out{file};
  if (!out) {
    std::fprintf(stderr, "pam_lint: cannot write %s\n", file.c_str());
    return 2;
  }
  emit(out);
  return 0;
}

/// The parsed command line.
struct Cli {
  std::string root = std::filesystem::current_path().string();
  std::vector<std::string> paths;
  bool json = false;
  std::string json_file;
  bool dot = false;
  std::string dot_file;
  bool list_rules = false;
  std::string subcommand;  ///< "", "graph" or "metrics"
};

/// Parses argv into `cli`.  Returns the exit code when the command line
/// ends the run: 0 after --help, 2 (usage printed) on an unknown option.
std::optional<int> parse_args(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    }
    if (i == 1 && (arg == "graph" || arg == "metrics")) {
      cli.subcommand = arg;
    } else if (arg == "--list-rules") {
      cli.list_rules = true;
    } else if (arg == "--root" && i + 1 < argc) {
      cli.root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      cli.root = arg.substr(7);
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      cli.json = true;
      cli.json_file = arg.substr(7);
    } else if (arg == "--dot") {
      cli.dot = true;
    } else if (arg.rfind("--dot=", 0) == 0) {
      cli.dot = true;
      cli.dot_file = arg.substr(6);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pam_lint: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      cli.paths.push_back(arg);
    }
  }
  return std::nullopt;
}

/// Expands the root-relative `paths` into files (everything under src/
/// when none is given).  False (message printed) on a missing path.
bool resolve_files(const std::string& root, const std::vector<std::string>& paths,
                   std::vector<std::string>& files) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& p : paths) {
    const fs::path abs = fs::path(root) / p;
    if (fs::is_directory(abs, ec)) {
      const auto batch = pam::lint::files_under(abs.string(), root);
      files.insert(files.end(), batch.begin(), batch.end());
    } else if (fs::is_regular_file(abs, ec)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "pam_lint: no such file or directory: %s\n", p.c_str());
      return false;
    }
  }
  if (files.empty()) {
    files = pam::lint::files_under((fs::path(root) / "src").string(), root);
  }
  return true;
}

/// `graph` and `metrics`: both work from the resolved include graph.
int run_report(const Cli& cli, const pam::lint::LintOptions& options) {
  std::map<std::string, std::vector<pam::lint::IncludeDirective>> per_file;
  std::map<std::string, std::string> raw;
  for (const auto& rel : options.files) {
    auto content = pam::lint::read_file(std::filesystem::path(options.root) / rel);
    if (!content) {
      std::fprintf(stderr, "pam_lint: cannot read %s\n", rel.c_str());
      return 2;
    }
    per_file.emplace(rel, pam::lint::extract_includes(*content));
    raw.emplace(rel, std::move(*content));
  }
  const pam::lint::IncludeGraph graph = pam::lint::build_include_graph(per_file);

  if (cli.subcommand == "graph") {
    return write_to(cli.dot ? cli.dot_file : cli.json_file, [&](std::ostream& out) {
      if (cli.dot) {
        pam::lint::write_layer_dot(out, &graph);
      } else {
        pam::lint::write_graph_human(out, graph);
      }
    });
  }

  // metrics: per-file shape + suppression counts from a full lint pass.
  const pam::lint::LintReport report = pam::lint::run_lint(options);
  std::map<std::string, std::size_t> suppressions;
  for (const auto& s : report.suppressions) ++suppressions[s.file];
  for (const auto& s : report.stale) ++suppressions[s.file];
  std::vector<pam::lint::FileMetrics> metrics;
  for (const auto& [rel, content] : raw) {
    pam::lint::FileMetrics m = pam::lint::measure_file(rel, pam::lint::preprocess(content));
    m.suppressions = suppressions.count(rel) > 0 ? suppressions.at(rel) : 0;
    m.fan_in = graph.fan_in(rel);
    m.fan_out = graph.fan_out(rel);
    metrics.push_back(std::move(m));
  }
  return write_to(cli.json_file, [&](std::ostream& out) {
    pam::lint::write_metrics_json(metrics, out);
  });
}

/// The lint gate: 0 when clean, 1 on violations or stale suppressions.
int run_gate(const Cli& cli, const pam::lint::LintOptions& options) {
  const pam::lint::LintReport report = pam::lint::run_lint(options);
  if (cli.json) {
    const int rc = write_to(cli.json_file, [&](std::ostream& out) {
      pam::lint::write_json(report, out);
    });
    if (rc != 0) {
      return rc;
    }
  } else {
    pam::lint::write_human(report, std::cout);
  }
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (const std::optional<int> done = parse_args(argc, argv, cli)) {
    return *done;
  }
  if (cli.list_rules) {
    for (const auto& r : pam::lint::rules()) {
      std::printf("  %s  %-32s %s\n", r.id.c_str(), r.name.c_str(), r.description.c_str());
    }
    return 0;
  }

  std::error_code ec;
  pam::lint::LintOptions options;
  options.root = std::filesystem::canonical(std::filesystem::path(cli.root), ec).string();
  if (ec) {
    std::fprintf(stderr, "pam_lint: bad --root: %s\n", ec.message().c_str());
    return 2;
  }
  if (!resolve_files(options.root, cli.paths, options.files)) {
    return 2;
  }
  return cli.subcommand.empty() ? run_gate(cli, options) : run_report(cli, options);
}
