// pam_lint: the project-specific determinism, architecture & hot-path
// performance analyzer.
//
// Everything this reproduction promises rests on bit-determinism: the
// fig1-walkthrough preset is the behaviour-preservation oracle, the fuzzer
// gates on an FNV-1a campaign digest, and bench_compare assumes replayable
// runs.  pam_lint mechanizes the manual "RNG audit" as named, testable
// rules (catalogued in docs/STATIC_ANALYSIS.md) and, since the cross-TU
// rewrite, checks the file *set* as a whole:
//
//   A001..A003  architecture — the include graph against the layer DAG
//               (src/lint/include_graph.hpp is the machine-readable single
//               source of truth), include cycles, unused includes.
//   D001..D006  determinism & race-safety — per-file token scans.
//   X001        suppression hygiene.
//
// Copy checks are clang-tidy's (performance-unnecessary-value-param,
// -for-range-copy); the per-packet allocation cost is gated by
// tests/test_steady_state_allocs.cpp.
//
// Scanning is token-based ("AST-lite", src/lint/source_view.hpp): block
// comments, line comments and string/char literals are blanked before
// matching, and `// pam-lint: allow(RULE) reason` escape hatches suppress
// one finding while being inventoried — a suppression without a reason,
// for an unknown rule, or matching nothing is itself an error.
//
// Output is machine-readable JSON (`pam-lint/v1`, mirroring pam-bench/v1;
// schema in docs/REPRODUCING.md) or a human report.  The `lint` CI job
// runs it hard over the compile_commands file set (closed over project
// includes, so header-only headers are covered too).

#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pam::lint {

/// One rule of the catalogue (docs/STATIC_ANALYSIS.md has the rationale).
struct RuleInfo {
  std::string id;           ///< "A001".."A003", "D001".."D006", "X001"
  std::string name;         ///< kebab-case short name
  std::string description;  ///< one-line summary
};

/// The rule catalogue, in id order (A*, D*, X*).
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// One finding: `rule` violated at `file:line:column`.
struct Violation {
  std::string rule;
  std::string file;  ///< root-relative path
  std::size_t line = 0;    ///< 1-based
  std::size_t column = 0;  ///< 1-based
  std::string snippet;     ///< the offending source line, trimmed
  std::string message;     ///< why this is a hazard
};

/// One `// pam-lint: allow(RULE) reason` escape hatch.
struct Suppression {
  std::string rule;
  std::string file;
  std::size_t line = 0;  ///< line the comment appears on
  std::string reason;
};

/// Result of linting a file set.  The gate passes iff clean() — stale or
/// malformed suppressions fail it just like violations do.
struct LintReport {
  std::vector<Violation> violations;      ///< sorted by file/line/column
  std::vector<Suppression> suppressions;  ///< used — the inventory
  std::vector<Suppression> stale;         ///< matched no finding
  std::size_t files_scanned = 0;

  [[nodiscard]] bool clean() const noexcept {
    return violations.empty() && stale.empty();
  }
};

/// Input file set.  Paths are root-relative; rule scoping (src/, the
/// benchreport/ steady-clock allowlist, packet/sim hot paths, the layer
/// DAG) keys off these relative paths, so keep them repo-shaped even in
/// tests.
struct LintOptions {
  std::string root;                 ///< absolute repo root
  std::vector<std::string> files;   ///< root-relative source paths
};

/// Lints every file in `options.files` (read from disk under root).
/// Cross-TU rules (A001..A003) see exactly this set; companions of listed
/// files are additionally loaded from disk as *context* (the D003
/// container registry) without being linted themselves.
[[nodiscard]] LintReport run_lint(const LintOptions& options);

/// Lints one in-memory buffer as if it lived at `rel_path` — the unit-test
/// entry point (no filesystem).  Companion/context tracking is limited to
/// `content` itself.
[[nodiscard]] LintReport lint_source(const std::string& rel_path,
                                     const std::string& content);

/// Lints a set of in-memory buffers as one cross-TU pass — the unit-test
/// entry point for the architecture rules (include graph, cycles, unused
/// includes).  Each pair is (root-relative path, content).
[[nodiscard]] LintReport lint_sources(
    const std::vector<std::pair<std::string, std::string>>& sources);

/// All *.hpp/*.cpp under `dir` (absolute), sorted, as paths relative to
/// `root`.  The default file set is files_under(root + "/src").
[[nodiscard]] std::vector<std::string> files_under(const std::string& dir,
                                                   const std::string& root);

/// Extracts the distinct "file" entries of a compile_commands.json that
/// live under `root`, as sorted root-relative paths.  Headers are added by
/// pairing (foo.cpp → sibling foo.hpp when present) and the set is then
/// closed over quoted project includes, so header-only headers reachable
/// from any TU are scanned too.  Returns empty on a missing/unparsable
/// database.
[[nodiscard]] std::vector<std::string> files_from_compile_commands(
    const std::string& db_path, const std::string& root);

/// Serialises the `pam-lint/v1` JSON document (docs/REPRODUCING.md).
void write_json(const LintReport& report, std::ostream& out);

/// Human-readable report: findings grouped by file, then the suppression
/// inventory and a one-line verdict.
void write_human(const LintReport& report, std::ostream& out);

}  // namespace pam::lint
