// `pam_lint metrics` — the complexity/suppression trend artifact (schema
// pam-lint-metrics/v1, documented in docs/STATIC_ANALYSIS.md); of it, only
// the function-length budget gates (scripts/run_lint.sh).
// CI uploads one per push so the suppression count, per-file size, the
// function-length budget and include-graph fan-in/fan-out become part of
// the perf trajectory next to BENCH_*.json: a hot-path rewrite that
// quietly doubles a file or piles up allows shows in the artifact diff
// even when every hard gate stays green.

#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "lint/include_graph.hpp"
#include "lint/source_view.hpp"

namespace pam::lint {

/// Functions longer than this many physical lines count as over budget.
/// Advisory: the metrics artifact reports the count, nothing gates on it.
inline constexpr std::size_t kFunctionBudgetLines = 120;

struct FileMetrics {
  std::string file;
  std::size_t lines = 0;             ///< physical lines
  std::size_t code_lines = 0;        ///< non-blank after comment strip
  std::size_t comment_lines = 0;     ///< lines carrying comment text
  std::size_t functions = 0;         ///< detected function bodies
  std::size_t longest_function = 0;  ///< lines of the longest body
  std::size_t over_budget = 0;       ///< bodies > kFunctionBudgetLines
  std::size_t suppressions = 0;      ///< lint allow-directives on the file
  std::size_t fan_in = 0;            ///< project files including this one
  std::size_t fan_out = 0;           ///< project files this one includes
};

/// Size/shape metrics of one preprocessed file (fan-in/out and
/// suppression counts are filled in by the caller, which owns the graph
/// and the lint report).
[[nodiscard]] FileMetrics measure_file(const std::string& file,
                                       const std::vector<SourceLine>& lines);

/// Serialises the pam-lint-metrics/v1 document, files sorted by path.
void write_metrics_json(const std::vector<FileMetrics>& files,
                        std::ostream& out);

}  // namespace pam::lint
