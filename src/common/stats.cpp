#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace pam {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

QuantileReservoir::QuantileReservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_state_(seed ? seed : 1) {}

void QuantileReservoir::add(double x) {
  ++total_;
  selection_dirty_ = true;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  // Algorithm R reservoir replacement with a xorshift64 step.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  const std::size_t j = static_cast<std::size_t>(rng_state_ % total_);
  if (j < capacity_) {
    samples_[j] = x;
  }
}

void QuantileReservoir::merge(const QuantileReservoir& other) {
  // Replaying through add() keeps capacity/replacement semantics and
  // determinism; other's own total_ beyond its retained samples is the
  // information a reservoir has already discarded.
  for (const double x : other.samples_) {
    add(x);
  }
}

double QuantileReservoir::quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) {
    return 0.0;
  }
  if (selection_dirty_) {
    selection_ = samples_;
    selection_dirty_ = false;
  }
  // Selection instead of a full sort: nth_element puts the lo-th order
  // statistic at `lo` with nothing smaller after it, so the (lo+1)-th is
  // the minimum of the tail.  Both values equal those of a sorted copy.
  // Each call only permutes the cached copy, so later calls stay correct.
  const double pos = q * static_cast<double>(selection_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const auto lo_it = selection_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(selection_.begin(), lo_it, selection_.end());
  const double lo_value = *lo_it;
  const double hi_value = lo_it + 1 == selection_.end()
                              ? lo_value
                              : *std::min_element(lo_it + 1, selection_.end());
  const double frac = pos - static_cast<double>(lo);
  return lo_value * (1.0 - frac) + hi_value * frac;
}

void LatencyRecorder::record(SimTime latency) {
  const double ns = static_cast<double>(latency.ns());
  stats_.add(ns);
  reservoir_.add(ns);
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  stats_.merge(other.stats_);
  reservoir_.merge(other.reservoir_);
}

std::string LatencyRecorder::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "n=%zu mean=%s p50=%s p99=%s max=%s",
                count(), mean().to_string().c_str(),
                quantile(0.5).to_string().c_str(),
                quantile(0.99).to_string().c_str(),
                max().to_string().c_str());
  return buf;
}

}  // namespace pam
