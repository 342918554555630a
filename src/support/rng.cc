#include "src/support/rng.h"

#include <cmath>

namespace bunshin {
namespace {

// SplitMix64: expands a 64-bit seed into well-distributed state words.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

double Rng::NextExponential(double mean) {
  // Inverse CDF; guard against log(0).
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

Rng::GaussianFactors Rng::NextGaussianFactors() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return {cached_gaussian_, 1.0};
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  have_cached_gaussian_ = true;
  return {radius, std::cos(theta)};
}

double Rng::NextGaussian(double mean, double stddev) {
  const GaussianFactors g = NextGaussianFactors();
  return mean + stddev * g.a * g.b;
}

Rng Rng::Fork(uint64_t salt) {
  // Mix the salt with fresh output so forked streams do not overlap.
  return Rng(NextU64() ^ (salt * 0x9E3779B97F4A7C15ULL) ^ 0xD1B54A32D192ED03ULL);
}

}  // namespace bunshin
