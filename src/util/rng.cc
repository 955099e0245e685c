#include "src/util/rng.h"

#include <cassert>
#include <cmath>
#include <numeric>

#include "src/util/status.h"

namespace blockhead {

namespace {

// splitmix64, used to expand a single seed into the xoshiro state.
std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  assert(bound != 0);
  // Lemire's nearly-divisionless bounded generation is overkill here; a simple modulo has
  // negligible bias for the bounds used in this library (device sizes << 2^64).
  return Next() % bound;
}

std::uint64_t Rng::NextInRange(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  return lo + NextBelow(hi - lo + 1);
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  const bool valid = n > 0 && std::isfinite(theta) && theta > 0.0 && theta != 1.0;
  CheckConfig(valid ? Status::Ok()
                    : Status(ErrorCode::kInvalidArgument, "need n > 0 and finite theta > 0, != 1"),
              "ZipfGenerator");
  zetan_ = Zeta(n, theta);
  const double zeta2 = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

double ZipfGenerator::Zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

std::uint64_t ZipfGenerator::Next() {
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double raw =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  std::uint64_t value = static_cast<std::uint64_t>(raw);
  if (value >= n_) {
    value = n_ - 1;
  }
  return value;
}

std::vector<std::uint64_t> RandomPermutation(std::uint64_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = rng.NextBelow(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace blockhead
