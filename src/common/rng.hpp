// Deterministic random number generation for the simulator and workload
// generators.
//
// The whole evaluation pipeline must be reproducible run-to-run, so every
// stochastic component receives an explicitly seeded Rng.  The engine is
// xoshiro256** (public domain, Blackman & Vigna) — fast, high quality, and
// trivially serialisable, unlike std::mt19937 whose 5 KB of state makes
// snapshotting awkward.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pam {

class Rng {
 public:
  /// Seeds the generator via splitmix64 so that nearby seeds produce
  /// uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform integer in [0, n).  Requires n > 0.  Uses Lemire's unbiased
  /// bounded technique.
  [[nodiscard]] std::uint64_t bounded(std::uint64_t n) noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability) noexcept;

  /// Normal variate via Marsaglia polar method.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Pareto variate with shape `alpha` and scale `xm` (heavy-tailed flow
  /// sizes).
  [[nodiscard]] double pareto(double xm, double alpha) noexcept;

  /// Sample an index from a Zipf(n, s) distribution over [0, n).  Used for
  /// skewed flow popularity.  O(1) per sample after O(n) table build — the
  /// table is cached per (n, s).
  [[nodiscard]] std::size_t zipf(std::size_t n, double s) noexcept;

  /// Split a statistically independent child stream (for per-component RNGs).
  [[nodiscard]] Rng split() noexcept;

  /// Derives a deterministic child seed for stream `stream` of lineage
  /// `base`.  The experiment layer threads every per-component seed (traffic
  /// sources, churn arrivals, link traces, fuzz cases) from the spec's seed
  /// through this — never std::random_device or the clock.
  [[nodiscard]] static std::uint64_t derive(std::uint64_t base,
                                            std::uint64_t stream) noexcept;

  /// Raw state access, used by the migration engine to snapshot NFs whose
  /// behaviour depends on randomness (e.g. sampling loggers).
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept { return s_; }
  void restore(const std::array<std::uint64_t, 4>& s) noexcept { s_ = s; }

 private:
  std::array<std::uint64_t, 4> s_{};
  // zipf()'s cached CDF over ranks 1..n, binary-searched per draw.
  std::size_t zipf_n_ = 0;
  double zipf_s_ = -1.0;
  std::vector<double> zipf_cdf_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace pam
