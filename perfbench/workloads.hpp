// The benchmark's workloads.  Each one is generated `.scn` text with the
// workload seed written into it; the simulator sees only that text, parsed
// by ScenarioSpec::parse.  README.md records why each workload was chosen.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Workload {
  std::string_view name;
  std::string_view why;
  /// The source preset's own seed, used when --seed is not given.
  std::uint64_t default_seed;
  /// Scenario text for `seed`.  `setup` cuts the simulated horizon to the
  /// shortest the spec accepts, which leaves fleet construction, pool
  /// pre-allocation, teardown and report assembly.
  std::string (*spec_text)(std::uint64_t seed, bool setup);
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace perfbench
