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
#include <memory>
#include <vector>

namespace pam {

/// The Zipf(n, s) distribution over ranks [0, n): its CDF plus a guide
/// table, so a draw costs O(1) expected instead of a binary search.  The
/// guide has a power-of-two number of cells, at least 4n; cell g holds the
/// first rank whose CDF is >= g / cells.  A power of two keeps
/// floor(u * cells) exact, so u never lies below its cell's bound and the
/// forward walk from the cell lands on exactly the rank std::lower_bound
/// over the CDF gives.  Immutable once built, so chains may share one.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s);

  [[nodiscard]] std::size_t n() const noexcept { return cdf_.size(); }
  [[nodiscard]] double s() const noexcept { return s_; }
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

  /// The first rank whose CDF is >= u, for u in [0, 1).
  [[nodiscard]] std::size_t rank(double u) const noexcept {
    std::size_t r = guide_[static_cast<std::size_t>(u * static_cast<double>(guide_.size()))];
    while (cdf_[r] < u) {
      ++r;
    }
    return r;
  }

 private:
  double s_;
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

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

  /// Sample an index from a Zipf(n, s) distribution over [0, n).  O(1)
  /// expected per sample; this Rng builds the O(n) table on the first draw
  /// and again whenever (n, s) changes.
  [[nodiscard]] std::size_t zipf(std::size_t n, double s) noexcept;
  /// The same draw from a table built elsewhere (FlowGenerator shares one
  /// across chains); consumes one next_double() either way.
  [[nodiscard]] std::size_t zipf(const ZipfTable& table) noexcept {
    return table.rank(next_double());
  }

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
  // zipf(n, s)'s table for the last (n, s) drawn.
  std::shared_ptr<const ZipfTable> zipf_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace pam
