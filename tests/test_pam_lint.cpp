// Unit tests for pam_lint (src/lint/): every rule A001..A003, D001..D004,
// D006 is exercised by a fixture that violates it exactly once, and the
// allow() escape hatch is proven to suppress, inventory, and go stale
// correctly (X001) in both the comment-line and trailing same-line forms.
//
// Per-file fixtures go through lint_source(), the no-filesystem entry
// point; cross-TU fixtures (include graph, cycles, unused includes) go
// through lint_sources().  The rel_path argument matters: rule scoping
// (the benchreport/ steady-clock allowlist, the epoch-executor scope of
// D006, the layer DAG of A001) keys off it.

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/include_graph.hpp"
#include "lint/lint.hpp"
#include "lint/metrics.hpp"
#include "lint/source_view.hpp"

namespace pam::lint {
namespace {

// --- rule catalogue ----------------------------------------------------------

TEST(PamLintRules, CatalogueListsAllRulesInOrder) {
  const auto& catalogue = rules();
  ASSERT_EQ(catalogue.size(), 9u);
  const char* expected[] = {"A001", "A002", "A003", "D001", "D002",
                            "D003", "D004", "D006", "X001"};
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    EXPECT_EQ(catalogue[i].id, expected[i]);
  }
  for (const auto& rule : catalogue) {
    EXPECT_FALSE(rule.name.empty()) << rule.id;
    EXPECT_FALSE(rule.description.empty()) << rule.id;
  }
}

TEST(PamLintRules, BannedTokenMessagesNameTheToken) {
  // One finding per match kind of the banned-token table: a bare word, a
  // call and a std::-qualified word, each with its token spliced in.
  const std::string src =
      "void f() {\n"
      "  auto t = time(nullptr);\n"
      "  localtime(&t);\n"
      "  std::mutex m;\n"
      "}\n";
  const LintReport report = lint_source("src/control/fixture_banned.cpp", src);
  ASSERT_EQ(report.violations.size(), 3u);
  EXPECT_EQ(report.violations[0].message,
            "time() reads the wall clock; sim time must come from the kernel, "
            "never the host");
  EXPECT_EQ(report.violations[1].message,
            "localtime reads the wall clock; sim time must come from the "
            "kernel, never the host");
  EXPECT_EQ(report.violations[2].rule, "D006");
  EXPECT_EQ(report.violations[2].message,
            "std::mutex outside src/sim/epoch_executor.*; shard parallelism "
            "must flow through EpochExecutor so the epoch barrier can order it");
}

// --- D001: ambient randomness ------------------------------------------------

TEST(PamLintD001, RandomDeviceFlaggedExactlyOnce) {
  const std::string src =
      "#include <random>\n"
      "int seed_from_entropy() {\n"
      "  std::random_device rd;\n"
      "  return static_cast<int>(rd());\n"
      "}\n";
  const LintReport report = lint_source("src/common/fixture_d001.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D001");
  EXPECT_EQ(report.violations[0].file, "src/common/fixture_d001.cpp");
  EXPECT_EQ(report.violations[0].line, 3u);
  EXPECT_EQ(report.files_scanned, 1u);
  EXPECT_FALSE(report.clean());
}

TEST(PamLintD001, LegacyRandCallFlagged) {
  const std::string src =
      "int jitter() {\n"
      "  return rand() % 7;\n"
      "}\n";
  const LintReport report = lint_source("src/common/fixture_rand.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D001");
  EXPECT_EQ(report.violations[0].line, 2u);
}

TEST(PamLintD001, LineSpliceInsideStringKeepsLineNumbers) {
  // A backslash-newline splice inside a string literal must not swallow
  // the newline, or every later finding in the file shifts by a line.
  const std::string src =
      "const char* kBanner = \"line one \\\n"
      "line two\";\n"
      "int jitter() {\n"
      "  return rand() % 7;\n"
      "}\n";
  const LintReport report = lint_source("src/common/fixture_splice.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D001");
  EXPECT_EQ(report.violations[0].line, 4u);
}

TEST(PamLintD001, RandInsideStringsAndCommentsIgnored) {
  const std::string src =
      "// a comment mentioning rand() and srand(1) must not fire\n"
      "const char* kDoc = \"call rand() for chaos\";\n"
      "/* block comment: std::random_device */\n";
  const LintReport report = lint_source("src/common/fixture_quiet.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.clean());
}

// --- D002: wall clock --------------------------------------------------------

TEST(PamLintD002, SystemClockFlaggedExactlyOnce) {
  const std::string src =
      "#include <chrono>\n"
      "long stamp() {\n"
      "  const auto now = std::chrono::system_clock::now();\n"
      "  return now.time_since_epoch().count();\n"
      "}\n";
  const LintReport report = lint_source("src/sim/fixture_d002.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D002");
  EXPECT_EQ(report.violations[0].line, 3u);
}

TEST(PamLintD002, SteadyClockAllowedOnlyInBenchreport) {
  const std::string src =
      "#include <chrono>\n"
      "long tick() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  const LintReport outside = lint_source("src/experiment/fixture_clock.cpp", src);
  ASSERT_EQ(outside.violations.size(), 1u);
  EXPECT_EQ(outside.violations[0].rule, "D002");

  const LintReport inside = lint_source("src/benchreport/fixture_clock.cpp", src);
  EXPECT_TRUE(inside.violations.empty());
  EXPECT_TRUE(inside.clean());
}

// --- D003: unordered iteration order -----------------------------------------

TEST(PamLintD003, RangeForOverUnorderedMapFlaggedExactlyOnce) {
  const std::string src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> flows_;\n"
      "int checksum() {\n"
      "  int acc = 0;\n"
      "  for (const auto& [key, value] : flows_) {\n"
      "    acc += key * value;\n"
      "  }\n"
      "  return acc;\n"
      "}\n";
  const LintReport report = lint_source("src/nf/fixture_d003.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D003");
  EXPECT_EQ(report.violations[0].file, "src/nf/fixture_d003.cpp");
  EXPECT_EQ(report.violations[0].line, 5u);
}

TEST(PamLintD003, ExplicitBeginIteratorFlagged) {
  const std::string src =
      "#include <unordered_set>\n"
      "std::unordered_set<int> seen_;\n"
      "int first() {\n"
      "  auto it = seen_.begin();\n"
      "  return *it;\n"
      "}\n";
  const LintReport report = lint_source("src/nf/fixture_begin.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D003");
  EXPECT_EQ(report.violations[0].line, 4u);
}

TEST(PamLintD003, PointerKeyedOrderedMapFlaggedAtDeclaration) {
  const std::string src =
      "#include <map>\n"
      "struct Node;\n"
      "std::map<Node*, int> owners_;\n";
  const LintReport report = lint_source("src/control/fixture_ptrkey.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D003");
  EXPECT_EQ(report.violations[0].line, 3u);
}

TEST(PamLintD003, SortedTraversalOfKeysIsClean) {
  // The sanctioned pattern: collect keys, sort, then index by key.
  const std::string src =
      "#include <algorithm>\n"
      "#include <unordered_map>\n"
      "#include <vector>\n"
      "std::unordered_map<int, int> flows_;\n"
      "int checksum() {\n"
      "  std::vector<int> keys;\n"
      "  keys.reserve(flows_.size());\n"
      "  int acc = 0;\n"
      "  for (const int key : keys) {\n"
      "    acc += flows_.at(key);\n"
      "  }\n"
      "  return acc;\n"
      "}\n";
  const LintReport report = lint_source("src/nf/fixture_sorted.cpp", src);
  EXPECT_TRUE(report.violations.empty()) << report.violations.size();
  EXPECT_TRUE(report.clean());
}

// --- D004: Rng lineage -------------------------------------------------------

TEST(PamLintD004, LiteralReseedFlaggedExactlyOnce) {
  const std::string src =
      "#include \"common/rng.hpp\"\n"
      "pam::Rng fresh() {\n"
      "  auto rng = pam::Rng(12345);\n"
      "  return rng;\n"
      "}\n";
  const LintReport report = lint_source("src/experiment/fixture_d004.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D004");
  EXPECT_EQ(report.violations[0].line, 3u);
}

TEST(PamLintD004, DerivedSeedIsClean) {
  const std::string src =
      "#include \"common/rng.hpp\"\n"
      "pam::Rng child(pam::Rng& parent) {\n"
      "  return pam::Rng::derive(parent, 7);\n"
      "}\n";
  const LintReport report = lint_source("src/experiment/fixture_derive.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.clean());
}

// --- D006: ad-hoc threading outside the shard-execution unit -----------------

TEST(PamLintD006, StdThreadOutsideExecutorFlaggedExactlyOnce) {
  const std::string src =
      "#include <thread>\n"
      "void spin() {\n"
      "  std::thread worker{[] {}};\n"
      "  worker.join();\n"
      "}\n";
  const LintReport report = lint_source("src/control/fixture_d006.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D006");
  EXPECT_EQ(report.violations[0].line, 3u);
}

TEST(PamLintD006, MutexAndAtomicFlagged) {
  const std::string src =
      "#include <atomic>\n"
      "#include <mutex>\n"
      "std::mutex m;\n"
      "std::atomic<int> n{0};\n";
  const LintReport report = lint_source("src/experiment/fixture_sync.cpp", src);
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].rule, "D006");
  EXPECT_EQ(report.violations[1].rule, "D006");
}

TEST(PamLintD006, EpochExecutorIsExempt) {
  const std::string src =
      "#include <mutex>\n"
      "#include <thread>\n"
      "std::mutex m;\n"
      "std::thread t;\n"
      "std::condition_variable cv;\n";
  const LintReport hpp = lint_source("src/sim/epoch_executor.hpp", src);
  EXPECT_TRUE(hpp.violations.empty());
  const LintReport cpp = lint_source("src/sim/epoch_executor.cpp", src);
  EXPECT_TRUE(cpp.violations.empty());
}

TEST(PamLintD006, UnqualifiedIdentifiersAreClean) {
  // Plain identifiers that merely spell the same words must not trip the
  // rule — only the std::-qualified primitives do.
  const std::string src =
      "struct Hook { int barrier; int latch; };\n"
      "void run(int threads, Hook thread) {\n"
      "  (void)threads;\n"
      "  (void)thread.barrier;\n"
      "}\n";
  const LintReport report = lint_source("src/sim/fixture_words.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.clean());
}

TEST(PamLintD006, PthreadCreateFlagged) {
  const std::string src =
      "#include <pthread.h>\n"
      "void spawn(void* (*fn)(void*)) {\n"
      "  pthread_create(nullptr, nullptr, fn, nullptr);\n"
      "}\n";
  const LintReport report = lint_source("src/device/fixture_pthread.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "D006");
  EXPECT_EQ(report.violations[0].line, 3u);
}

// --- allow() suppression hygiene ---------------------------------------------

TEST(PamLintSuppression, AllowSuppressesAndIsInventoried) {
  const std::string src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> flows_;\n"
      "int count_all() {\n"
      "  int n = 0;\n"
      "  // pam-lint: allow(D003) pure count, order cannot leak\n"
      "  for (const auto& [key, value] : flows_) {\n"
      "    n += value;\n"
      "  }\n"
      "  return n;\n"
      "}\n";
  const LintReport report = lint_source("src/nf/fixture_allow.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  ASSERT_EQ(report.suppressions.size(), 1u);
  EXPECT_EQ(report.suppressions[0].rule, "D003");
  EXPECT_EQ(report.suppressions[0].file, "src/nf/fixture_allow.cpp");
  EXPECT_EQ(report.suppressions[0].line, 5u);
  EXPECT_EQ(report.suppressions[0].reason, "pure count, order cannot leak");
  EXPECT_TRUE(report.stale.empty());
  EXPECT_TRUE(report.clean());
}

TEST(PamLintSuppression, TrailingAllowOnCodeLineCoversThatLine) {
  const std::string src =
      "#include <unordered_set>\n"
      "std::unordered_set<int> seen_;\n"
      "bool any() {\n"
      "  return seen_.begin() != seen_.end();  // pam-lint: allow(D003) emptiness probe\n"
      "}\n";
  const LintReport report = lint_source("src/nf/fixture_trailing.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  ASSERT_EQ(report.suppressions.size(), 1u);
  EXPECT_EQ(report.suppressions[0].line, 4u);
  EXPECT_TRUE(report.clean());
}

TEST(PamLintSuppression, TrailingAllowMidCommentIsRecognised) {
  // On a code line the marker may sit anywhere in the trailing comment;
  // prose before it does not hide the directive.
  const std::string src =
      "#include <unordered_set>\n"
      "std::unordered_set<int> seen_;\n"
      "bool any() {\n"
      "  return seen_.begin() != seen_.end();  // emptiness probe; pam-lint: allow(D003) order-free\n"
      "}\n";
  const LintReport report = lint_source("src/nf/fixture_midtrail.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  ASSERT_EQ(report.suppressions.size(), 1u);
  EXPECT_EQ(report.suppressions[0].rule, "D003");
  EXPECT_EQ(report.suppressions[0].line, 4u);
  EXPECT_EQ(report.suppressions[0].reason, "order-free");
  EXPECT_TRUE(report.clean());
}

TEST(PamLintSuppression, StaleTrailingAllowFailsTheGate) {
  const std::string src =
      "int five() { return 5; }  // pam-lint: allow(D001) nothing random here\n";
  const LintReport report = lint_source("src/common/fixture_staletrail.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.suppressions.empty());
  ASSERT_EQ(report.stale.size(), 1u);
  EXPECT_EQ(report.stale[0].rule, "D001");
  EXPECT_EQ(report.stale[0].line, 1u);
  EXPECT_FALSE(report.clean());
}

TEST(PamLintSuppression, ProseOnCommentOnlyLineIsNotADirective) {
  // Comment-only lines keep the start-anchor requirement, so docs that
  // merely mention the syntax mid-sentence never parse as suppressions.
  const std::string src =
      "// The escape hatch is spelled pam-lint: allow(D001) with a reason.\n"
      "int five() { return 5; }\n";
  const LintReport report = lint_source("src/common/fixture_prose.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.suppressions.empty());
  EXPECT_TRUE(report.stale.empty());
  EXPECT_TRUE(report.clean());
}

TEST(PamLintSuppression, StaleAllowFailsTheGate) {
  const std::string src =
      "// pam-lint: allow(D001) nothing random actually follows\n"
      "int five() { return 5; }\n";
  const LintReport report = lint_source("src/common/fixture_stale.cpp", src);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.suppressions.empty());
  ASSERT_EQ(report.stale.size(), 1u);
  EXPECT_EQ(report.stale[0].rule, "D001");
  EXPECT_EQ(report.stale[0].line, 1u);
  EXPECT_FALSE(report.clean());
}

TEST(PamLintSuppression, UnknownRuleIsX001) {
  // P001..P003 are not rule ids (clang-tidy owns the copy checks, the
  // steady-state allocation test the per-packet closures): an allow naming
  // them must fail loudly, not pass as a stale suppression.
  for (const std::string id : {"D999", "P001", "P002", "P003"}) {
    const std::string src =
        "// pam-lint: allow(" + id + ") there is no such rule\n"
        "int five() { return 5; }\n";
    const LintReport report = lint_source("src/common/fixture_x001.cpp", src);
    ASSERT_EQ(report.violations.size(), 1u) << id;
    EXPECT_EQ(report.violations[0].rule, "X001") << id;
    EXPECT_EQ(report.violations[0].line, 1u) << id;
    EXPECT_EQ(report.violations[0].message,
              "allow(" + id + "): not a suppressible rule id");
    EXPECT_TRUE(report.stale.empty()) << id;
    EXPECT_FALSE(report.clean()) << id;
  }
}

TEST(PamLintSuppression, MissingReasonIsX001) {
  const std::string src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> flows_;\n"
      "int count_all() {\n"
      "  int n = 0;\n"
      "  // pam-lint: allow(D003)\n"
      "  for (const auto& [key, value] : flows_) {\n"
      "    n += value;\n"
      "  }\n"
      "  return n;\n"
      "}\n";
  const LintReport report = lint_source("src/nf/fixture_noreason.cpp", src);
  // The malformed directive is X001 AND the D003 it failed to cover stays.
  ASSERT_EQ(report.violations.size(), 2u);
  const bool has_x001 = std::any_of(
      report.violations.begin(), report.violations.end(),
      [](const Violation& violation) { return violation.rule == "X001"; });
  const bool has_d003 = std::any_of(
      report.violations.begin(), report.violations.end(),
      [](const Violation& violation) { return violation.rule == "D003"; });
  EXPECT_TRUE(has_x001);
  EXPECT_TRUE(has_d003);
  EXPECT_FALSE(report.clean());
}

// --- A001: layer dependencies ------------------------------------------------

TEST(PamLintA001, UpwardIncludeFlaggedExactlyOnce) {
  // packet (layer 1) reaching up into sim (layer 3) inverts the DAG.
  const std::string src =
      "#include \"sim/event_queue.hpp\"\n"
      "int peek();\n";
  const LintReport report = lint_source("src/packet/fixture_a001.cpp", src);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "A001");
  EXPECT_EQ(report.violations[0].file, "src/packet/fixture_a001.cpp");
  EXPECT_EQ(report.violations[0].line, 1u);
  EXPECT_FALSE(report.clean());
}

TEST(PamLintA001, TransitiveClosureEdgeIsClean) {
  // experiment -> common is not a declared direct dep but lies in the
  // transitive closure (experiment -> control -> ... -> common).
  const std::string src =
      "#include \"common/rng.hpp\"\n"
      "int seed();\n";
  const LintReport report =
      lint_source("src/experiment/fixture_closure.cpp", src);
  EXPECT_TRUE(report.clean()) << report.violations.size();
}

TEST(PamLintA001, ToolingIncludableOnlyFromCliMains) {
  const std::string src =
      "#include \"benchreport/bench_reporter.hpp\"\n"
      "int measure();\n";
  const LintReport lib = lint_source("src/sim/fixture_tooling.cpp", src);
  ASSERT_EQ(lib.violations.size(), 1u);
  EXPECT_EQ(lib.violations[0].rule, "A001");

  const LintReport cli = lint_source("src/sim/fixture_main.cpp", src);
  EXPECT_TRUE(cli.clean()) << cli.violations.size();
}

TEST(PamLintA001, SystemIncludesAndNonSrcFilesOutOfScope) {
  const std::string src =
      "#include <vector>\n"
      "#include \"sim/event_queue.hpp\"\n"
      "int helper();\n";
  // tests/ is outside the DAG's jurisdiction entirely.
  const LintReport report = lint_source("tests/fixture_outside.cpp", src);
  EXPECT_TRUE(report.clean()) << report.violations.size();
}

// --- A002: include cycles ----------------------------------------------------

TEST(PamLintA002, HeaderCycleFlaggedOnce) {
  // Two headers including each other; each references the other's type so
  // A003 stays quiet and the one finding is the cycle itself.
  const LintReport report = lint_sources({
      {"src/chain/fixture_a.hpp",
       "#include \"chain/fixture_b.hpp\"\n"
       "struct FixA { FixB* peer; };\n"},
      {"src/chain/fixture_b.hpp",
       "#include \"chain/fixture_a.hpp\"\n"
       "struct FixB { FixA* peer; };\n"},
  });
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "A002");
  EXPECT_EQ(report.violations[0].file, "src/chain/fixture_a.hpp");
  EXPECT_NE(report.violations[0].message.find("fixture_b.hpp"),
            std::string::npos);
}

TEST(PamLintA002, AcyclicHeadersAreClean) {
  const LintReport report = lint_sources({
      {"src/chain/fixture_top.hpp",
       "#include \"chain/fixture_base.hpp\"\n"
       "struct FixTop { FixBase base; };\n"},
      {"src/chain/fixture_base.hpp", "struct FixBase { int x; };\n"},
  });
  EXPECT_TRUE(report.clean()) << report.violations.size();
}

TEST(PamLintA002, FindCycleOnSyntheticGraph) {
  // The generic cycle finder, on a seeded graph: canonical rotation
  // starts at the lexicographically smallest member and closes the loop.
  const std::map<std::string, std::vector<std::string>> cyclic = {
      {"a", {"b"}},
      {"b", {"c"}},
      {"c", {"b", "d"}},
      {"d", {}},
  };
  const auto cycle = find_cycle(cyclic);
  const std::vector<std::string> expected = {"b", "c", "b"};
  EXPECT_EQ(cycle, expected);

  const std::map<std::string, std::vector<std::string>> acyclic = {
      {"a", {"b", "c"}},
      {"b", {"c"}},
      {"c", {}},
  };
  EXPECT_TRUE(find_cycle(acyclic).empty());
}

// --- A003: unused includes ---------------------------------------------------

TEST(PamLintA003, UnreferencedIncludeFlaggedExactlyOnce) {
  const LintReport report = lint_sources({
      {"src/chain/fixture_user.cpp",
       "#include \"common/fixture_util.hpp\"\n"
       "int local_only() { return 5; }\n"},
      {"src/common/fixture_util.hpp", "int fixture_helper();\n"},
  });
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "A003");
  EXPECT_EQ(report.violations[0].file, "src/chain/fixture_user.cpp");
  EXPECT_EQ(report.violations[0].line, 1u);
}

TEST(PamLintA003, ReferencedIncludeIsClean) {
  const LintReport report = lint_sources({
      {"src/chain/fixture_user.cpp",
       "#include \"common/fixture_util.hpp\"\n"
       "int twice() { return fixture_helper() * 2; }\n"},
      {"src/common/fixture_util.hpp", "int fixture_helper();\n"},
  });
  EXPECT_TRUE(report.clean()) << report.violations.size();
}

TEST(PamLintA003, CompanionIncludeAlwaysExempt) {
  // A TU includes its own header even when it only adds definitions the
  // header does not name.
  const LintReport report = lint_sources({
      {"src/chain/fixture_pair.cpp",
       "#include \"chain/fixture_pair.hpp\"\n"
       "int detail_only() { return 1; }\n"},
      {"src/chain/fixture_pair.hpp", "int fixture_pair_api();\n"},
  });
  EXPECT_TRUE(report.clean()) << report.violations.size();
}

TEST(PamLintA003, TargetOutsideScannedSetSkipped) {
  // No export info for the target: conservative silence, not a guess.
  const std::string src =
      "#include \"common/rng.hpp\"\n"
      "int local_only() { return 5; }\n";
  const LintReport report = lint_source("src/chain/fixture_noinfo.cpp", src);
  EXPECT_TRUE(report.clean()) << report.violations.size();
}

// --- include graph & DOT emission --------------------------------------------

TEST(PamLintGraph, FanInFanOutOverResolvedEdges) {
  std::map<std::string, std::vector<IncludeDirective>> per_file;
  per_file["src/chain/user.cpp"] = {{"common/util.hpp", 1, true},
                                    {"vector", 2, false}};
  per_file["src/chain/other.cpp"] = {{"common/util.hpp", 1, true}};
  const IncludeGraph graph = build_include_graph(per_file);
  EXPECT_EQ(graph.fan_out("src/chain/user.cpp"), 1u);  // system include dropped
  EXPECT_EQ(graph.fan_in("src/common/util.hpp"), 2u);
  const auto edges = graph.library_edges();
  const auto it = edges.find({"chain", "common"});
  ASSERT_NE(it, edges.end());
  EXPECT_EQ(it->second, 2u);
}

TEST(PamLintGraph, DotOutputNamesEveryLibrary) {
  std::ostringstream out;
  write_layer_dot(out, nullptr);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("digraph pam_layers"), std::string::npos);
  for (const auto& layer : layer_dag()) {
    EXPECT_NE(dot.find("\"" + layer.lib + "\""), std::string::npos)
        << layer.lib;
  }
  EXPECT_NE(dot.find("(tooling)"), std::string::npos);
}

// --- metrics -----------------------------------------------------------------

TEST(PamLintMetrics, MeasureCountsFunctionsAndBudget) {
  std::string src =
      "// leading comment\n"
      "int small() { return 1; }\n"
      "int big() {\n";
  for (int i = 0; i < 130; ++i) {
    src += "  (void)0;\n";
  }
  src += "  return 2;\n}\n";
  const FileMetrics m = measure_file("src/common/fx.cpp", preprocess(src));
  EXPECT_EQ(m.file, "src/common/fx.cpp");
  EXPECT_EQ(m.functions, 2u);
  EXPECT_GE(m.longest_function, 130u);
  EXPECT_EQ(m.over_budget, 1u);
  EXPECT_EQ(m.comment_lines, 1u);
}

TEST(PamLintMetrics, JsonCarriesSchemaAndPerFileShape) {
  FileMetrics m;
  m.file = "src/common/fx.cpp";
  m.lines = 10;
  m.code_lines = 7;
  m.functions = 2;
  m.suppressions = 1;
  m.fan_in = 3;
  m.fan_out = 4;
  std::ostringstream out;
  write_metrics_json({m}, out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"schema\": \"pam-lint-metrics/v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"function_budget_lines\": 120"), std::string::npos);
  EXPECT_NE(doc.find("\"fan_in\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"suppressions\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"totals\""), std::string::npos);
}

// --- output formats ----------------------------------------------------------

TEST(PamLintOutput, JsonDocumentCarriesSchemaAndVerdict) {
  const std::string src =
      "int jitter() {\n"
      "  return rand() % 7;\n"
      "}\n";
  const LintReport report = lint_source("src/common/fixture_json.cpp", src);
  std::ostringstream out;
  write_json(report, out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"schema\": \"pam-lint/v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"D001\""), std::string::npos);
  EXPECT_NE(doc.find("\"clean\": false"), std::string::npos);
}

TEST(PamLintOutput, HumanReportNamesVerdict) {
  const LintReport clean_report =
      lint_source("src/common/fixture_empty.cpp", "int five() { return 5; }\n");
  std::ostringstream out;
  write_human(clean_report, out);
  EXPECT_NE(out.str().find("CLEAN"), std::string::npos);
}

}  // namespace
}  // namespace pam::lint
