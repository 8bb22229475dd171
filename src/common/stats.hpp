// Streaming statistics used by the measurement layer: running moments and
// exact-quantile reservoirs for latency distributions.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace pam {

/// Welford running mean/variance with min/max.  O(1) per sample.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;   ///< population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile estimator.  Keeps all samples up to `capacity`, then switches to
/// uniform reservoir sampling — exact quantiles for typical measurement runs,
/// bounded memory for very long ones.  Deterministic given the seed.
class QuantileReservoir {
 public:
  explicit QuantileReservoir(std::size_t capacity = 1 << 16, std::uint64_t seed = 42);

  void add(double x);

  /// Folds `other`'s retained samples into this reservoir (deterministic:
  /// samples are replayed through add() in insertion order).  Once either
  /// side has overflowed its capacity the merged quantiles are an
  /// approximation over the union, as with any reservoir.
  void merge(const QuantileReservoir& other);

  [[nodiscard]] std::size_t count() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

  /// q in [0, 1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

 private:
  std::size_t capacity_;
  std::uint64_t rng_state_;
  std::size_t total_ = 0;
  std::vector<double> samples_;
  /// Copy of samples_ that quantile() partially orders; refreshed after add.
  mutable std::vector<double> selection_;
  mutable bool selection_dirty_ = true;
};

/// Latency recorder combining moments + quantiles, in SimTime.
class LatencyRecorder {
 public:
  void record(SimTime latency);
  /// Folds another recorder in (fleet-level aggregation across chains):
  /// moments merge exactly, quantiles via QuantileReservoir::merge.
  void merge(const LatencyRecorder& other);
  [[nodiscard]] std::size_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] SimTime mean() const { return SimTime::nanoseconds(static_cast<std::int64_t>(stats_.mean())); }
  [[nodiscard]] SimTime min() const { return SimTime::nanoseconds(static_cast<std::int64_t>(stats_.min())); }
  [[nodiscard]] SimTime max() const { return SimTime::nanoseconds(static_cast<std::int64_t>(stats_.max())); }
  [[nodiscard]] SimTime quantile(double q) const {
    return SimTime::nanoseconds(static_cast<std::int64_t>(reservoir_.quantile(q)));
  }
  [[nodiscard]] std::string summary() const;

 private:
  RunningStats stats_;
  QuantileReservoir reservoir_;
};

}  // namespace pam
