// Deterministic random number generation for workloads and device models.
//
// Everything is seeded explicitly; two runs with the same seed produce identical streams, which
// keeps the paper-reproduction benchmarks deterministic.

#ifndef BLOCKHEAD_SRC_UTIL_RNG_H_
#define BLOCKHEAD_SRC_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace blockhead {

// xoshiro256** PRNG. Fast, high quality, and trivially copyable (unlike std::mt19937 it is
// cheap to embed per-workload-actor).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform 64-bit value.
  std::uint64_t Next();

  // Uniform in [0, bound). bound must be nonzero.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Exponentially distributed value with the given mean (for open-loop arrivals).
  double NextExponential(double mean);

 private:
  std::uint64_t state_[4];
};

// Zipfian generator over [0, n) with parameter theta (0 < theta < 1 typical; theta→0 is
// uniform). Uses the Gray/Jim Gray "quick zipf" method from the YCSB generator, so draws are
// O(1) after O(n)-free setup (the zeta constant is computed incrementally).
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed);

  std::uint64_t Next();

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  Rng rng_;
};

// Returns a pseudo-random permutation of [0, n) for scrambled-zipf style key spaces.
std::vector<std::uint64_t> RandomPermutation(std::uint64_t n, std::uint64_t seed);

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_UTIL_RNG_H_
