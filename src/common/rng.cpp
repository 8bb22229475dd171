#include "common/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace pam {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

ZipfTable::ZipfTable(std::size_t n, double s) : s_(s), cdf_(n) {
  assert(n > 0 && n <= UINT32_MAX);
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = cum;
  }
  for (auto& x : cdf_) {
    x /= cum;  // the last entry becomes exactly 1.0
  }
  guide_.resize(std::bit_ceil(4 * n));
  // g * width is exact (width is a power of two), so each cell's bound is
  // exactly g / cells.
  const double width = 1.0 / static_cast<double>(guide_.size());
  std::size_t r = 0;
  for (std::size_t g = 0; g < guide_.size(); ++g) {
    const double bound = static_cast<double>(g) * width;
    while (cdf_[r] < bound) {
      ++r;
    }
    guide_[g] = static_cast<std::uint32_t>(r);
  }
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // All-zero state is the one invalid xoshiro state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_[0] = 1;
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::bounded(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span = hi - lo;
  if (span == UINT64_MAX) {
    return next_u64();
  }
  return lo + bounded(span + 1);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

double Rng::exponential(double mean) noexcept {
  assert(mean > 0.0);
  double u = next_double();
  // Guard the log(0) corner.
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

bool Rng::chance(double probability) noexcept {
  return next_double() < probability;
}

double Rng::normal(double mean, double stddev) noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return mean + stddev * u * factor;
}

double Rng::pareto(double xm, double alpha) noexcept {
  assert(xm > 0.0 && alpha > 0.0);
  double u = next_double();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (!zipf_ || zipf_->n() != n || zipf_->s() != s) {
    zipf_ = std::make_shared<const ZipfTable>(n, s);
  }
  return zipf(*zipf_);
}

Rng Rng::split() noexcept {
  return Rng{next_u64() ^ 0xd1b54a32d192ed03ull};
}

std::uint64_t Rng::derive(std::uint64_t base, std::uint64_t stream) noexcept {
  // Two splitmix64 rounds decorrelate adjacent (base, stream) pairs.
  std::uint64_t sm = base ^ (0x9e3779b97f4a7c15ull * (stream + 1));
  (void)splitmix64(sm);
  return splitmix64(sm);
}

}  // namespace pam
