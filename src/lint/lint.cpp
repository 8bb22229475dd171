#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json_writer.hpp"
#include "lint/include_graph.hpp"
#include "lint/source_view.hpp"

namespace pam::lint {
namespace {

// --- rule catalogue ----------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"A001", "layer-dependency",
     "an #include may only point down the layer DAG (common → packet → "
     "{nf, device, trafficgen} → {chain, sim} → {core, migration} → "
     "control → experiment; src/lint/include_graph.cpp is the machine-"
     "readable source of truth); benchreport/ and lint/ are out-of-DAG "
     "tooling, includable only from *_main.cpp CLI entry points"},
    {"A002", "include-cycle",
     "project headers must not form include cycles; a cycle couples "
     "layers bidirectionally and breaks incremental builds — "
     "forward-declare or split the header"},
    {"A003", "unused-include",
     "a direct project include none of whose exported symbols are "
     "referenced by the includer is dead coupling: it widens rebuild "
     "fan-out and hides the real dependency; drop it or include what "
     "you use"},
    {"D001", "no-ambient-randomness",
     "std::random_device / rand() / srand() break replayability; all "
     "randomness must flow from the scenario seed through pam::Rng"},
    {"D002", "no-wall-clock",
     "wall-clock reads (system_clock, time(), gettimeofday, ...) on "
     "sim/experiment/control paths make runs non-replayable; steady_clock "
     "is allowed only inside src/benchreport/"},
    {"D003", "no-unordered-order-dependence",
     "iterating std::unordered_map/set (or ordering by pointer keys) feeds "
     "hash-table or address order into output, digests, state blobs or "
     "decisions; traverse a sorted view instead"},
    {"D004", "rng-lineage",
     "every Rng must descend from the scenario seed via Rng::derive; a "
     "literal reseed forks an untracked stream"},
    {"D005", "no-raw-alloc-on-hot-path",
     "new/delete/malloc on packet/event hot paths (src/packet, src/sim) "
     "bypass PacketPool/arena recycling and wreck tail latency"},
    {"D006", "no-ad-hoc-threading",
     "std::thread/mutex/atomic/... outside the kernel's shard-execution "
     "unit (src/sim/epoch_executor.*) forks concurrency that the epoch "
     "barrier cannot order; parallel work must flow through EpochExecutor"},
    {"X001", "allow-hygiene",
     "pam-lint: allow(...) escape hatches need a known rule id and a "
     "reason, and must match a finding (stale allows are reported)"},
};

bool known_rule(const std::string& id) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

// --- unordered-container registry (rule D003) --------------------------------

/// Declared names of unordered containers in one translation unit (self +
/// companion).  `callables` are getters returning one by reference.
struct ContainerRegistry {
  std::set<std::string> variables;
  std::set<std::string> callables;
};

void collect_containers(const JoinedCode& j, ContainerRegistry& reg) {
  for (const char* kind : {"unordered_map", "unordered_set"}) {
    for (const std::size_t col : find_word(j.text, kind)) {
      const std::size_t open = next_nonspace(j.text, col + std::string(kind).size());
      if (open == std::string::npos || j.text[open] != '<') {
        continue;  // e.g. `#include <unordered_map>` (the '<' precedes)
      }
      const std::size_t close = match_angle(j.text, open);
      if (close == std::string::npos) {
        continue;
      }
      // After the closing '>': optional `&`/`*`, then the declared name.
      std::size_t p = next_nonspace(j.text, close);
      while (p != std::string::npos && (j.text[p] == '&' || j.text[p] == '*')) {
        p = next_nonspace(j.text, p + 1);
      }
      if (p == std::string::npos || !ident_char(j.text[p]) ||
          std::isdigit(static_cast<unsigned char>(j.text[p]))) {
        continue;  // template argument position, return in a cast, ...
      }
      std::size_t e = p;
      while (e < j.text.size() && ident_char(j.text[e])) ++e;
      const std::string name = j.text.substr(p, e - p);
      if (name == "const" || name == "constexpr" || name == "static") {
        continue;
      }
      const std::size_t after = next_nonspace(j.text, e);
      if (after != std::string::npos && j.text[after] == '(') {
        reg.callables.insert(name);
      } else {
        reg.variables.insert(name);
      }
    }
  }
}

// --- suppressions ------------------------------------------------------------

struct PendingSuppression {
  std::string rule;      ///< well-formed allows only
  std::size_t line = 0;  ///< 1-based comment line
  std::string reason;
  bool used = false;
  bool code_on_line = false;  ///< trailing comment (same-line scope) vs
                              ///< comment-only line (covers the next line)
};

/// Parses every `pam-lint: allow(RULE) reason` of a file's comments.
/// Malformed ones (unknown rule, missing reason) become X001 violations.
///
/// Recognition (rule X001): on a comment-only line the directive must
/// START the comment, so prose documenting the syntax (this file, docs)
/// is never parsed as one; on a line carrying code, the marker may sit
/// anywhere in the trailing comment — `stat;  // freed below; pam-lint:
/// allow(D005) arena-owned` is a directive.
void collect_suppressions(const std::vector<SourceLine>& lines,
                          const std::string& file,
                          std::vector<PendingSuppression>& out,
                          std::vector<Violation>& x001) {
  const std::string marker = "pam-lint:";
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& comment = lines[n].comment;
    const bool code_on_line = !trimmed(lines[n].code).empty();
    const bool anchored = starts_with(trimmed(comment), marker);
    const bool trailing =
        code_on_line && comment.find(marker) != std::string::npos;
    if (!anchored && !trailing) {
      continue;
    }
    std::size_t pos = 0;
    while ((pos = comment.find(marker, pos)) != std::string::npos) {
      std::size_t p = pos + marker.size();
      pos = p;
      const std::size_t allow = comment.find("allow(", p);
      if (allow == std::string::npos) {
        x001.push_back({"X001", file, n + 1, 1, trimmed(comment),
                        "pam-lint: directive without allow(RULE)"});
        continue;
      }
      const std::size_t close = comment.find(')', allow);
      if (close == std::string::npos) {
        x001.push_back({"X001", file, n + 1, 1, trimmed(comment),
                        "unterminated allow( directive"});
        continue;
      }
      const std::string rule = trimmed(comment.substr(allow + 6, close - allow - 6));
      const std::string reason = trimmed(comment.substr(close + 1));
      if (!known_rule(rule) || rule == "X001") {
        x001.push_back({"X001", file, n + 1, 1, trimmed(comment),
                        "allow(" + rule + "): not a suppressible rule id"});
        continue;
      }
      if (reason.empty()) {
        x001.push_back({"X001", file, n + 1, 1, trimmed(comment),
                        "allow(" + rule + ") without a reason"});
        continue;
      }
      PendingSuppression s;
      s.rule = rule;
      s.line = n + 1;
      s.reason = reason;
      s.code_on_line = code_on_line;
      out.push_back(s);
    }
  }
}

// --- per-file lint -----------------------------------------------------------

void add_violation(std::vector<Violation>& out, const std::string& rule,
                   const std::string& file, std::size_t line_1based,
                   std::size_t col_0based, const std::string& snippet,
                   const std::string& message) {
  out.push_back({rule, file, line_1based, col_0based + 1, trimmed(snippet), message});
}

/// One preprocessed file plus its joined-code view (built once, shared by
/// every pass).
struct FileCtx {
  std::vector<SourceLine> lines;
  JoinedCode joined;
};

const std::string& snippet_line(const FileCtx& f, std::size_t line_1based) {
  static const std::string kEmpty;
  return line_1based >= 1 && line_1based <= f.lines.size()
             ? f.lines[line_1based - 1].code
             : kEmpty;
}

/// All per-file findings (D001..D006) before suppression filtering.
std::vector<Violation> scan_file(const std::string& file, const FileCtx& f,
                                 const ContainerRegistry& reg) {
  std::vector<Violation> v;
  const bool benchreport = starts_with(file, "src/benchreport/");
  const bool alloc_hot_path =
      starts_with(file, "src/packet/") || starts_with(file, "src/sim/");
  const bool shard_executor = starts_with(file, "src/sim/epoch_executor.");

  const std::vector<SourceLine>& lines = f.lines;
  const JoinedCode& joined = f.joined;

  // D003 pointer-keyed ordered containers: flag at the declaration.
  for (const char* kind : {"map", "set", "multimap", "multiset"}) {
    for (const std::size_t col : find_word(joined.text, kind)) {
      const std::size_t open =
          next_nonspace(joined.text, col + std::string(kind).size());
      if (open == std::string::npos || joined.text[open] != '<') {
        continue;
      }
      // Require std:: qualification so project types named *map stay out.
      if (col < 5 || joined.text.compare(col - 5, 5, "std::") != 0) {
        continue;
      }
      const std::string key = first_template_arg(joined.text, open);
      if (key.find('*') != std::string::npos) {
        const std::size_t ln = joined.line_of(col);
        add_violation(v, "D003", file, ln, 0, snippet_line(f, ln),
                      "std::" + std::string(kind) +
                          " keyed by a pointer orders by address — "
                          "nondeterministic across runs (ASLR/allocation "
                          "order); key by a stable id instead");
      }
    }
  }

  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    const std::size_t ln = n + 1;

    // D001 — ambient randomness.
    for (const std::size_t col : find_word(code, "random_device")) {
      add_violation(v, "D001", file, ln, col, code,
                    "std::random_device is nondeterministic; derive a "
                    "pam::Rng from the scenario seed");
    }
    for (const char* fn : {"rand", "srand", "rand_r", "drand48"}) {
      for (const std::size_t col : find_call(code, fn)) {
        add_violation(v, "D001", file, ln, col, code,
                      std::string(fn) + "() uses hidden global state; use "
                      "the scenario-seeded pam::Rng");
      }
    }

    // D002 — wall clock.
    for (const char* tok :
         {"system_clock", "high_resolution_clock", "gettimeofday",
          "clock_gettime", "localtime", "gmtime", "timespec_get"}) {
      for (const std::size_t col : find_word(code, tok)) {
        add_violation(v, "D002", file, ln, col, code,
                      std::string(tok) + " reads the wall clock; sim time "
                      "must come from the kernel, never the host");
      }
    }
    for (const std::size_t col : find_call(code, "time")) {
      add_violation(v, "D002", file, ln, col, code,
                    "time() reads the wall clock; sim time must come from "
                    "the kernel, never the host");
    }
    if (!benchreport) {
      for (const std::size_t col : find_word(code, "steady_clock")) {
        add_violation(v, "D002", file, ln, col, code,
                      "steady_clock is allowlisted only in src/benchreport/ "
                      "(timing helpers); route measurement through "
                      "benchreport instead");
      }
    }

    // D003 — iteration over registered unordered containers: range-for
    // (`for (x : flows_)`, `for (x : nodes_[u].next)`, `for (x : obj.get())`)
    // and explicit iterator loops (`flows_.begin()`).
    const auto check_iteration = [&](const std::string& name, bool callable) {
      for (const std::size_t col : find_word(code, name)) {
        const bool range_for = chain_starts_at_colon(code, col) &&
                               in_for_context(lines, n);
        const std::size_t after = next_nonspace(code, col + name.size());
        const bool begin_call =
            !callable && after != std::string::npos && code[after] == '.' &&
            (code.compare(after + 1, 6, "begin(") == 0 ||
             code.compare(after + 1, 7, "cbegin(") == 0);
        if (range_for || begin_call) {
          add_violation(v, "D003", file, ln, col, code,
                        "iterating unordered container '" + name +
                            (callable ? "()'" : "'") +
                            " leaks hash-table order into downstream "
                            "output/state/decisions; traverse sorted keys "
                            "instead");
        }
      }
    };
    for (const auto& name : reg.variables) {
      check_iteration(name, false);
    }
    for (const auto& name : reg.callables) {
      check_iteration(name, true);
    }

    // D004 — literal Rng reseed.
    for (const std::size_t col : find_word(code, "Rng")) {
      const std::size_t open = next_nonspace(code, col + 3);
      if (open == std::string::npos ||
          (code[open] != '(' && code[open] != '{')) {
        continue;
      }
      const std::size_t arg = next_nonspace(code, open + 1);
      if (arg != std::string::npos &&
          std::isdigit(static_cast<unsigned char>(code[arg]))) {
        add_violation(v, "D004", file, ln, col, code,
                      "Rng seeded with a literal forks an untracked stream; "
                      "derive the seed via Rng::derive(parent, stream)");
      }
    }

    // D005 — raw allocation on hot paths.
    if (alloc_hot_path) {
      for (const std::size_t col : find_word(code, "new")) {
        add_violation(v, "D005", file, ln, col, code,
                      "raw `new` on a packet/event hot path; allocate "
                      "through PacketPool/arena");
      }
      for (const std::size_t col : find_word(code, "delete")) {
        if (prev_nonspace(code, col) == '=') {
          continue;  // `= delete;` declarations
        }
        add_violation(v, "D005", file, ln, col, code,
                      "raw `delete` on a packet/event hot path; return "
                      "storage to PacketPool/arena");
      }
      for (const char* fn :
           {"malloc", "calloc", "realloc", "free", "aligned_alloc", "strdup"}) {
        for (const std::size_t col : find_call(code, fn)) {
          add_violation(v, "D005", file, ln, col, code,
                        std::string(fn) + "() on a packet/event hot path; "
                        "allocate through PacketPool/arena");
        }
      }
    }

    // D006 — ad-hoc threading outside the shard-execution unit.  Only the
    // std::-qualified spellings are matched so ordinary identifiers like
    // `barrier_hook_` or a parameter named `threads` never trip the rule.
    if (!shard_executor) {
      for (const char* tok :
           {"thread", "jthread", "mutex", "shared_mutex", "recursive_mutex",
            "timed_mutex", "condition_variable", "condition_variable_any",
            "atomic", "atomic_flag", "atomic_ref", "async", "future",
            "promise", "barrier", "latch", "counting_semaphore",
            "binary_semaphore", "stop_token"}) {
        for (const std::size_t col : find_word(code, tok)) {
          if (!std_qualified(code, col)) {
            continue;
          }
          add_violation(v, "D006", file, ln, col, code,
                        "std::" + std::string(tok) +
                            " outside src/sim/epoch_executor.*; shard "
                            "parallelism must flow through EpochExecutor so "
                            "the epoch barrier can order it");
        }
      }
      for (const char* fn : {"pthread_create", "pthread_mutex_init",
                             "pthread_cond_init", "pthread_mutex_lock"}) {
        for (const std::size_t col : find_call(code, fn)) {
          add_violation(v, "D006", file, ln, col, code,
                        std::string(fn) + "() outside src/sim/"
                        "epoch_executor.*; shard parallelism must flow "
                        "through EpochExecutor");
        }
      }
    }
  }

  return v;
}

// --- architecture rules (A001..A003) -----------------------------------------

/// foo.cpp ↔ foo.hpp, or empty for any other extension.
std::string companion_of(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  if (dot == std::string::npos) {
    return {};
  }
  const std::string ext = rel.substr(dot);
  if (ext == ".cpp") return rel.substr(0, dot) + ".hpp";
  if (ext == ".hpp") return rel.substr(0, dot) + ".cpp";
  return {};
}

/// A001 over one file's resolved project includes.
void check_layering(const std::string& file,
                    const std::vector<IncludeDirective>& edges,
                    const std::map<std::string, FileCtx>& ctx,
                    std::vector<Violation>& v) {
  const std::string from = library_of(file);
  if (from.empty()) {
    return;  // tests/, tools/: outside the DAG's jurisdiction
  }
  const bool is_cli_main =
      file.size() >= 9 &&
      file.compare(file.size() - 9, 9, "_main.cpp") == 0;
  const auto it = ctx.find(file);
  for (const auto& d : edges) {
    const std::string to = library_of(d.target);
    if (to.empty() || to == from) {
      continue;
    }
    const std::string snippet =
        it != ctx.end() ? snippet_line(it->second, d.line) : std::string{};
    if (is_tooling_library(to) && !is_tooling_library(from)) {
      if (is_cli_main) {
        continue;  // CLI entry TUs may wire tooling in
      }
      add_violation(v, "A001", file, d.line, 0, snippet,
                    "'" + to + "' is out-of-DAG tooling; only *_main.cpp "
                    "CLI entry points may include it — simulator libraries "
                    "must stay measurement-free");
      continue;
    }
    if (layer_edge_allowed(from, to)) {
      continue;
    }
    add_violation(v, "A001", file, d.line, 0, snippet,
                  "library '" + from + "' may not depend on '" + to +
                      "': not in its declared dependency closure (layer "
                      "DAG in src/lint/include_graph.cpp; run `pam_lint "
                      "graph` to see it)");
  }
}

/// A002: one violation naming the first include cycle found (fix it and
/// re-run; cycles are rare enough that one at a time is the clearer
/// report).
void check_cycles(const IncludeGraph& graph,
                  const std::map<std::string, FileCtx>& ctx,
                  std::vector<Violation>& v) {
  const auto cycle = find_cycle(header_adjacency(graph));
  if (cycle.empty()) {
    return;
  }
  std::string path;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) path += " -> ";
    path += cycle[i];
  }
  const std::string& head = cycle.front();
  std::size_t line = 1;
  const auto it = graph.edges.find(head);
  if (it != graph.edges.end()) {
    for (const auto& d : it->second) {
      if (d.target == cycle[1]) {
        line = d.line;
        break;
      }
    }
  }
  const auto fit = ctx.find(head);
  add_violation(v, "A002", head, line, 0,
                fit != ctx.end() ? snippet_line(fit->second, line)
                                 : std::string{},
                "include cycle among project headers: " + path +
                    "; forward-declare or split the header to break it");
}

/// A003 over one file: direct project includes none of whose exported
/// symbols are referenced.  Conservative: companion includes are exempt,
/// and headers whose export set comes back empty (macro tricks, pure
/// forwarding) are skipped.
void check_unused_includes(const std::string& file, const FileCtx& f,
                           const std::vector<IncludeDirective>& edges,
                           const std::map<std::string, FileCtx>& ctx,
                           std::map<std::string, std::set<std::string>>& cache,
                           std::vector<Violation>& v) {
  const std::string companion = companion_of(file);
  for (const auto& d : edges) {
    if (d.target == companion) {
      continue;  // a TU always includes its own header
    }
    const auto tit = ctx.find(d.target);
    if (tit == ctx.end()) {
      continue;  // target not in the scanned set: no export info
    }
    auto cit = cache.find(d.target);
    if (cit == cache.end()) {
      cit = cache.emplace(d.target, exported_symbols(tit->second.joined))
                .first;
    }
    const std::set<std::string>& exports = cit->second;
    if (exports.empty()) {
      continue;
    }
    bool referenced = false;
    for (const auto& sym : exports) {
      if (references_symbol(f.joined, sym)) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      add_violation(v, "A003", file, d.line, 0, snippet_line(f, d.line),
                    "nothing exported by '" + d.target +
                        "' is referenced here; drop the include (or "
                        "include the header you actually use)");
    }
  }
}

// --- the cross-TU pipeline ---------------------------------------------------

std::string read_file(const std::filesystem::path& p, bool& ok) {
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

/// The full pass over an in-memory file set.  `context_raw` holds
/// companions of linted files that are not part of the set themselves:
/// they feed the D003 container registry but are not linted.  `pre` carries violations discovered
/// before parsing (unreadable files).
LintReport lint_set(const std::map<std::string, std::string>& raw,
                    const std::map<std::string, std::string>& context_raw,
                    std::vector<Violation> pre) {
  LintReport report;
  std::map<std::string, FileCtx> ctx;
  std::map<std::string, std::vector<IncludeDirective>> includes;
  for (const auto& [rel, content] : raw) {
    FileCtx f;
    f.lines = preprocess(content);
    f.joined = join_code(f.lines);
    includes.emplace(rel, extract_includes(content));
    ctx.emplace(rel, std::move(f));
  }
  std::map<std::string, JoinedCode> context_joined;
  for (const auto& [rel, content] : context_raw) {
    context_joined.emplace(rel, join_code(preprocess(content)));
  }

  const IncludeGraph graph = build_include_graph(includes);

  std::vector<Violation> all = std::move(pre);
  std::map<std::string, std::vector<PendingSuppression>> pending_by_file;

  for (const auto& [rel, f] : ctx) {
    collect_suppressions(f.lines, rel, pending_by_file[rel], all);

    ContainerRegistry reg;
    collect_containers(f.joined, reg);
    const std::string comp = companion_of(rel);
    if (!comp.empty()) {
      if (const auto it = ctx.find(comp); it != ctx.end()) {
        collect_containers(it->second.joined, reg);
      } else if (const auto jt = context_joined.find(comp);
                 jt != context_joined.end()) {
        collect_containers(jt->second, reg);
      }
    }

    const auto found = scan_file(rel, f, reg);
    all.insert(all.end(), found.begin(), found.end());
  }

  // Architecture passes over the resolved graph.
  std::map<std::string, std::set<std::string>> export_cache;
  for (const auto& [rel, edges] : graph.edges) {
    check_layering(rel, edges, ctx, all);
    const auto it = ctx.find(rel);
    if (it != ctx.end()) {
      check_unused_includes(rel, it->second, edges, ctx, export_cache, all);
    }
  }
  check_cycles(graph, ctx, all);

  std::sort(all.begin(), all.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.column, a.rule, a.message) <
                     std::tie(b.file, b.line, b.column, b.rule, b.message);
            });

  // Suppression filtering: an allow on a code line covers that line; an
  // allow on a comment-only line covers the next line.
  for (auto& viol : all) {
    bool suppressed = false;
    if (viol.rule != "X001") {
      const auto pit = pending_by_file.find(viol.file);
      if (pit != pending_by_file.end()) {
        for (auto& s : pit->second) {
          const std::size_t target = s.code_on_line ? s.line : s.line + 1;
          if (s.rule == viol.rule && target == viol.line) {
            s.used = true;
            suppressed = true;
            break;
          }
        }
      }
    }
    if (!suppressed) {
      report.violations.push_back(std::move(viol));
    }
  }
  for (auto& [rel, pending] : pending_by_file) {
    for (auto& s : pending) {
      Suppression entry{s.rule, rel, s.line, s.reason};
      if (s.used) {
        report.suppressions.push_back(std::move(entry));
      } else {
        report.stale.push_back(std::move(entry));
      }
    }
  }
  report.files_scanned = ctx.size();
  return report;
}

}  // namespace

// --- public API --------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return kRules; }

LintReport run_lint(const LintOptions& options) {
  std::map<std::string, std::string> raw;
  std::vector<Violation> pre;
  for (const auto& rel : options.files) {
    bool ok = false;
    auto content = read_file(std::filesystem::path(options.root) / rel, ok);
    if (!ok) {
      pre.push_back({"X001", rel, 0, 0, "", "file could not be read"});
      continue;
    }
    raw.emplace(rel, std::move(content));
  }
  // Companions of linted files that are not themselves in the set are
  // loaded as context only.
  std::map<std::string, std::string> context;
  for (const auto& [rel, content] : raw) {
    const std::string comp = companion_of(rel);
    if (comp.empty() || raw.count(comp) > 0) {
      continue;
    }
    bool ok = false;
    auto text = read_file(std::filesystem::path(options.root) / comp, ok);
    if (ok) {
      context.emplace(comp, std::move(text));
    }
  }
  return lint_set(raw, context, std::move(pre));
}

LintReport lint_source(const std::string& rel_path, const std::string& content) {
  return lint_sources({{rel_path, content}});
}

LintReport lint_sources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::map<std::string, std::string> raw;
  for (const auto& [rel, content] : sources) {
    raw[rel] = content;
  }
  return lint_set(raw, {}, {});
}

std::vector<std::string> files_under(const std::string& dir,
                                     const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it{fs::path(dir), ec}, end;
       it != end && !ec; it.increment(ec)) {
    if (!it->is_regular_file(ec)) {
      continue;
    }
    const auto ext = it->path().extension().string();
    if (ext != ".hpp" && ext != ".cpp" && ext != ".cc" && ext != ".h") {
      continue;
    }
    out.push_back(
        fs::relative(it->path(), fs::path(root), ec).generic_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> files_from_compile_commands(const std::string& db_path,
                                                     const std::string& root) {
  namespace fs = std::filesystem;
  bool ok = false;
  const std::string text = read_file(fs::path(db_path), ok);
  if (!ok) {
    return {};
  }
  std::set<std::string> uniq;
  const std::string key = "\"file\"";
  std::size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    pos += key.size();
    const std::size_t colon = text.find(':', pos);
    if (colon == std::string::npos) break;
    const std::size_t open = text.find('"', colon);
    if (open == std::string::npos) break;
    std::string value;
    std::size_t i = open + 1;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        value += text[i + 1];
        i += 2;
      } else {
        value += text[i++];
      }
    }
    pos = i;
    std::error_code ec;
    const auto rel = fs::relative(fs::path(value), fs::path(root), ec);
    if (ec) continue;
    const std::string rel_str = rel.generic_string();
    if (starts_with(rel_str, "..") || !starts_with(rel_str, "src/")) {
      continue;  // third_party, tests, generated files
    }
    uniq.insert(rel_str);
    const std::string companion = companion_of(rel_str);
    if (!companion.empty() &&
        fs::exists(fs::path(root) / companion, ec)) {
      uniq.insert(companion);
    }
  }
  // Close the set over quoted project includes so header-only headers
  // (no TU of their own) enter the cross-TU passes too.
  std::vector<std::string> work(uniq.begin(), uniq.end());
  while (!work.empty()) {
    const std::string rel = work.back();
    work.pop_back();
    bool read_ok = false;
    const std::string content = read_file(fs::path(root) / rel, read_ok);
    if (!read_ok) {
      continue;
    }
    for (const auto& d : extract_includes(content)) {
      if (!d.quoted) {
        continue;
      }
      const std::string target = "src/" + d.target;
      std::error_code ec;
      if (!fs::exists(fs::path(root) / target, ec)) {
        continue;
      }
      if (uniq.insert(target).second) {
        work.push_back(target);
      }
    }
  }
  return {uniq.begin(), uniq.end()};
}

void write_json(const LintReport& report, std::ostream& out) {
  JsonWriter w{out};
  w.begin_object();
  w.key("schema");
  w.value("pam-lint/v1");
  w.key("files_scanned");
  w.value(static_cast<std::uint64_t>(report.files_scanned));
  w.key("rules");
  w.begin_array();
  for (const auto& r : rules()) {
    w.begin_object();
    w.key("id");
    w.value(r.id);
    w.key("name");
    w.value(r.name);
    w.key("description");
    w.value(r.description);
    w.end_object();
  }
  w.end_array();
  w.key("violations");
  w.begin_array();
  for (const auto& v : report.violations) {
    w.begin_object();
    w.key("rule");
    w.value(v.rule);
    w.key("file");
    w.value(v.file);
    w.key("line");
    w.value(static_cast<std::uint64_t>(v.line));
    w.key("column");
    w.value(static_cast<std::uint64_t>(v.column));
    w.key("snippet");
    w.value(v.snippet);
    w.key("message");
    w.value(v.message);
    w.end_object();
  }
  w.end_array();
  const auto suppression_array = [&](const std::vector<Suppression>& list) {
    w.begin_array();
    for (const auto& s : list) {
      w.begin_object();
      w.key("rule");
      w.value(s.rule);
      w.key("file");
      w.value(s.file);
      w.key("line");
      w.value(static_cast<std::uint64_t>(s.line));
      w.key("reason");
      w.value(s.reason);
      w.end_object();
    }
    w.end_array();
  };
  w.key("suppressions");
  suppression_array(report.suppressions);
  w.key("stale_suppressions");
  suppression_array(report.stale);
  w.key("summary");
  w.begin_object();
  w.key("violations");
  w.value(static_cast<std::uint64_t>(report.violations.size()));
  w.key("suppressions");
  w.value(static_cast<std::uint64_t>(report.suppressions.size()));
  w.key("stale_suppressions");
  w.value(static_cast<std::uint64_t>(report.stale.size()));
  w.key("clean");
  w.value(report.clean());
  w.end_object();
  w.end_object();
  out << "\n";
}

void write_human(const LintReport& report, std::ostream& out) {
  std::string last_file;
  for (const auto& v : report.violations) {
    if (v.file != last_file) {
      out << v.file << ":\n";
      last_file = v.file;
    }
    out << "  " << v.file << ":" << v.line << ":" << v.column << ": ["
        << v.rule << "] " << v.message << "\n";
    if (!v.snippet.empty()) {
      out << "      > " << v.snippet << "\n";
    }
  }
  if (!report.suppressions.empty()) {
    out << "suppressions (" << report.suppressions.size() << "):\n";
    for (const auto& s : report.suppressions) {
      out << "  " << s.file << ":" << s.line << ": allow(" << s.rule
          << ") — " << s.reason << "\n";
    }
  }
  for (const auto& s : report.stale) {
    out << "  " << s.file << ":" << s.line << ": STALE allow(" << s.rule
        << ") matches no finding — remove it\n";
  }
  out << "pam_lint: " << report.files_scanned << " file(s), "
      << report.violations.size() << " violation(s), "
      << report.suppressions.size() << " suppression(s), "
      << report.stale.size() << " stale\n";
  out << (report.clean() ? "CLEAN" : "FAILED") << "\n";
}

}  // namespace pam::lint
