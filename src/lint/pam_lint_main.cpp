// pam_lint CLI — the determinism, architecture & hot-path performance gate
// (docs/STATIC_ANALYSIS.md).
//
//   pam_lint                          # lint src/ under the cwd, human report
//   pam_lint --json=lint.json        # machine-readable pam-lint/v1
//   pam_lint --compile-commands build/compile_commands.json
//   pam_lint --root /path/to/repo src/nf src/sim/fcfs_server.cpp
//   pam_lint --list-rules
//   pam_lint graph --dot             # layer DAG + observed include edges
//   pam_lint metrics                 # advisory pam-lint-metrics/v1 JSON
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
#include <sstream>
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
      "(rules A001..A003, D001..D006, X001; docs/STATIC_ANALYSIS.md).\n"
      "Copy checks live in clang-tidy.\n"
      "\n"
      "subcommands:\n"
      "  (none)                 run the lint gate\n"
      "  graph                  print the layer DAG and observed include\n"
      "                         edges (--dot for Graphviz; ARCHITECTURE.md's\n"
      "                         diagram is regenerated from it)\n"
      "  metrics                emit advisory pam-lint-metrics/v1 JSON\n"
      "                         (LoC, function budget, suppressions, fan-in/out)\n"
      "\n"
      "options:\n"
      "  --root DIR             repo root (default: current directory)\n"
      "  --compile-commands F   file list from a compile database\n"
      "                         (headers paired in, closed over includes)\n"
      "  --json[=FILE]          emit JSON (default: stdout)\n"
      "  --dot[=FILE]           graph only: Graphviz output\n"
      "  --list-rules           print the rule catalogue and exit\n"
      "  -h, --help             this text\n"
      "\n"
      "paths are root-relative files or directories; the default file set\n"
      "is everything under src/.\n",
      out);
}

std::string read_all(const std::filesystem::path& p, bool& ok) {
  std::ifstream in{p, std::ios::binary};
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
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

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::string root = fs::current_path().string();
  std::string compile_commands;
  std::vector<std::string> paths;
  bool json = false;
  std::string json_file;
  bool dot = false;
  std::string dot_file;
  bool list_rules = false;
  std::string subcommand;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    }
    if (i == 1 && (arg == "graph" || arg == "metrics")) {
      subcommand = arg;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--compile-commands" && i + 1 < argc) {
      compile_commands = argv[++i];
    } else if (arg.rfind("--compile-commands=", 0) == 0) {
      compile_commands = arg.substr(19);
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_file = arg.substr(7);
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg.rfind("--dot=", 0) == 0) {
      dot = true;
      dot_file = arg.substr(6);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pam_lint: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const auto& r : pam::lint::rules()) {
      std::printf("  %s  %-32s %s\n", r.id.c_str(), r.name.c_str(),
                  r.description.c_str());
    }
    return 0;
  }

  std::error_code ec;
  root = fs::canonical(fs::path(root), ec).string();
  if (ec) {
    std::fprintf(stderr, "pam_lint: bad --root: %s\n", ec.message().c_str());
    return 2;
  }

  pam::lint::LintOptions options;
  options.root = root;
  if (!compile_commands.empty()) {
    options.files =
        pam::lint::files_from_compile_commands(compile_commands, root);
    if (options.files.empty()) {
      std::fprintf(stderr,
                   "pam_lint: no project sources found in '%s' "
                   "(missing or unparsable compile database?)\n",
                   compile_commands.c_str());
      return 2;
    }
  }
  if (!paths.empty()) {
    for (const auto& p : paths) {
      const fs::path abs = fs::path(root) / p;
      if (fs::is_directory(abs, ec)) {
        const auto batch = pam::lint::files_under(abs.string(), root);
        options.files.insert(options.files.end(), batch.begin(), batch.end());
      } else if (fs::is_regular_file(abs, ec)) {
        options.files.push_back(p);
      } else {
        std::fprintf(stderr, "pam_lint: no such file or directory: %s\n",
                     p.c_str());
        return 2;
      }
    }
  }
  if (options.files.empty()) {
    options.files =
        pam::lint::files_under((fs::path(root) / "src").string(), root);
  }

  if (subcommand == "graph" || subcommand == "metrics") {
    // Both subcommands work from the resolved include graph.
    std::map<std::string, std::vector<pam::lint::IncludeDirective>> per_file;
    std::map<std::string, std::string> raw;
    for (const auto& rel : options.files) {
      bool ok = false;
      auto content = read_all(fs::path(root) / rel, ok);
      if (!ok) {
        std::fprintf(stderr, "pam_lint: cannot read %s\n", rel.c_str());
        return 2;
      }
      per_file.emplace(rel, pam::lint::extract_includes(content));
      raw.emplace(rel, std::move(content));
    }
    const pam::lint::IncludeGraph graph =
        pam::lint::build_include_graph(per_file);

    if (subcommand == "graph") {
      return write_to(dot ? dot_file : json_file, [&](std::ostream& out) {
        if (dot) {
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
      pam::lint::FileMetrics m =
          pam::lint::measure_file(rel, pam::lint::preprocess(content));
      m.suppressions =
          suppressions.count(rel) > 0 ? suppressions.at(rel) : 0;
      m.fan_in = graph.fan_in(rel);
      m.fan_out = graph.fan_out(rel);
      metrics.push_back(std::move(m));
    }
    return write_to(json_file, [&](std::ostream& out) {
      pam::lint::write_metrics_json(metrics, out);
    });
  }

  const pam::lint::LintReport report = pam::lint::run_lint(options);

  if (json) {
    const int rc = write_to(json_file, [&](std::ostream& out) {
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
