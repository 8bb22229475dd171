// Golden report digests, one per bundled preset.
//
// Every `.scn` under scenarios/ is run in-process through ScenarioRunner
// and its metrics JSON (write_metrics_json, the same bytes
// `pam_exp run <preset> --json=FILE` writes) is hashed with FNV-1a 64.
// The table pins the digest of every preset, so a change that moves one
// byte of any preset's report fails here, by name.  A preset added under
// scenarios/ without a pinned digest fails too.
//
// A second column pins the FNV-1a of each preset's canonical text
// (ScenarioSpec::to_text()), so the spec printer cannot move a byte
// without a run changing either.
//
// If a change moves a digest on purpose, re-pin it in the same commit and
// say why in CHANGES.md.  To recompute a value from the command line:
//
//   pam_exp run <preset> --quiet --json=out.json
//   python3 -c "import sys; h=0xcbf29ce484222325
//   for b in open(sys.argv[1],'rb').read(): h=((h^b)*0x100000001b3)%2**64
//   print(hex(h))" out.json

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_library.hpp"
#include "experiment/scenario_runner.hpp"

namespace pam {
namespace {

struct PinnedDigests {
  std::uint64_t report;  ///< metrics JSON
  std::uint64_t text;    ///< canonical text, ScenarioSpec::to_text()
};

const std::map<std::string, PinnedDigests>& pinned_digests() {
  static const std::map<std::string, PinnedDigests> digests = {
      {"churn-diurnal-flashcrowd", {0xbb9e108683f0eb0cULL, 0x2e9fa05cb7c6282aULL}},
      {"cluster-datacenter", {0x19ea7066f142c413ULL, 0x1aa6b8e484d09f4dULL}},
      {"cluster-hotspot-rebalance", {0x6d2a3fbcd72cfb82ULL, 0x38962143563c6c14ULL}},
      {"cluster-rack-16", {0x91743a2b2c9f6808ULL, 0x1bc89157de9cedb2ULL}},
      {"failure-evacuation", {0xf93ca24271f70a44ULL, 0x36235687e0b795deULL}},
      {"fig1-crossings", {0xfe4edfa808fd07bdULL, 0xad223d5e46660ce5ULL}},
      {"fig1-walkthrough", {0xc38249b2a80b636eULL, 0xcccb13f2d45dd851ULL}},
      {"fig2-latency", {0xde4740bc5812b1c8ULL, 0x53c8beca08f58757ULL}},
      {"fig2-throughput", {0x6c0760a1b2baf0a2ULL, 0x7294a200c4332ebfULL}},
      {"hostile-fabric-fade", {0x0956cb6e41da95b0ULL, 0x19b4498d5a295c91ULL}},
      {"multi-tenant-burst", {0xcf94876888daf306ULL, 0x738abd290e770e3fULL}},
      {"policy-duel", {0x4ae534250be6e3eeULL, 0x70ab72bcd7eba808ULL}},
      {"quickstart", {0x553a28491e2dca8fULL, 0xe36f7e37e43ac41eULL}},
      {"scale-in-drain", {0xed55f8e372a10126ULL, 0x9abe983c7917a8b0ULL}},
      {"table1-capacity", {0x88c313b13867ba34ULL, 0xb66d6a51ff0975e8ULL}},
  };
  return digests;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::string> pinned_names() {
  std::vector<std::string> names;
  for (const auto& [name, digests] : pinned_digests()) {
    names.push_back(name);
  }
  return names;
}

TEST(PresetDigests, EveryBundledPresetIsPinned) {
  auto names = list_scenarios(default_scenario_dir());
  ASSERT_TRUE(names.has_value()) << names.error().message;
  EXPECT_EQ(names.value(), pinned_names());
}

class PresetDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetDigest, ReportMatchesPinnedDigest) {
  const std::string& name = GetParam();
  auto spec = load_bundled_scenario(name);
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  const ScenarioRunner runner;
  auto result = runner.run(spec.value());
  ASSERT_TRUE(result.has_value()) << result.error().message;
  std::ostringstream json;
  write_metrics_json(result.value(), json);
  const std::uint64_t digest = fnv1a(json.str());
  EXPECT_EQ(digest, pinned_digests().at(name).report)
      << name << " report drifted: got 0x" << std::hex << digest
      << " — behaviour changed; if intentional, re-pin and document";
}

TEST_P(PresetDigest, CanonicalTextMatchesPinnedDigest) {
  const std::string& name = GetParam();
  auto spec = load_bundled_scenario(name);
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  const std::uint64_t digest = fnv1a(spec.value().to_text());
  EXPECT_EQ(digest, pinned_digests().at(name).text)
      << name << " canonical text drifted: got 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Bundled, PresetDigest, ::testing::ValuesIn(pinned_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& c : id) {
        if (c == '-') {
          c = '_';
        }
      }
      return id;
    });

}  // namespace
}  // namespace pam
