// Deterministic PRNG used everywhere randomness is needed.
//
// All Bunshin simulations must be reproducible run-to-run, so no component may
// use std::random_device or time-based seeding. Xoshiro256** is fast, has a
// 256-bit state, and passes BigCrush.
//
// Normal draws are Box-Muller, exposed as an unscaled factor pair so a caller
// can record a stream's draws once and scale them later with the same
// arithmetic NextGaussian uses: trace generation keeps each variant's jitter
// stream as a noise tape (src/workload/tracegen.h), drawn here once per
// process, and derives every trace from it bit for bit.
#ifndef BUNSHIN_SRC_SUPPORT_RNG_H_
#define BUNSHIN_SRC_SUPPORT_RNG_H_

#include <bit>
#include <cstdint>

namespace bunshin {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // The per-draw methods are defined below, in the header, so that trace
  // generation's draw loops inline them.

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, bound); 0, drawing nothing, when bound is 0. Uses
  // rejection sampling to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]); draws only when p is in (0, 1).
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  // One Box-Muller standard normal as two factors whose product is the draw:
  // (radius, cos theta) for the first of a pair, then the cached
  // (radius * sin theta, 1.0) for the second.
  struct GaussianFactors {
    double a;
    double b;
  };
  GaussianFactors NextGaussianFactors();

  // Standard normal scaled to (mean, stddev): mean + stddev * a * b over
  // NextGaussianFactors (multiplying by the cached half's b = 1.0 is exact).
  double NextGaussian(double mean, double stddev);

  // Derive an independent child stream; children with distinct salts are
  // statistically independent of the parent and each other.
  Rng Fork(uint64_t salt);

 private:
  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

inline uint64_t Rng::NextU64() {
  const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

inline uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling over the largest multiple of bound below 2^64: a draw
  // is kept when it is at least 2^64 mod bound. That threshold is below the
  // bound, so a draw at least the bound is kept without computing it.
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= bound || r >= (0 - bound) % bound) {
      return r % bound;
    }
  }
}

inline double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

inline bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

}  // namespace bunshin

#endif  // BUNSHIN_SRC_SUPPORT_RNG_H_
