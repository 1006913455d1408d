// Deterministic, seedable pseudo-random number generation.
//
// Every synthetic artifact in the repo (table contents, query streams,
// arrival processes) is derived from an explicit seed so experiments are
// reproducible run-to-run and across machines.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace microrec {

/// xoshiro256** PRNG. Fast, high-quality, 2^256-1 period; satisfies
/// UniformRandomBitGenerator so it plugs into <random> distributions.
///
/// The step and the uniform draws built on it are defined here so every
/// caller inlines them; they are integer operations plus an exact
/// power-of-two scale, so their values do not depend on where they inline.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return Next(); }

  std::uint64_t Next() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t NextBounded(std::uint64_t bound) {
    std::uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi).
  float NextFloat(float lo, float hi);

  /// Standard normal via Marsaglia polar method. Values come in pairs: a
  /// call that draws an accepted pair returns one and keeps the other as
  /// a spare, which the next call returns without drawing.
  double NextGaussian();

  /// Leaves the generator exactly as `n` discarded NextGaussian() calls
  /// would, spare included: it draws the same polar-method candidates and
  /// counts accepted pairs, without computing their values (no log or
  /// sqrt). Only a pair whose second value stays pending as the spare is
  /// evaluated.
  void DiscardGaussians(std::uint64_t n);

 private:
  std::uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// SplitMix64 step; also usable standalone for seed hashing.
std::uint64_t SplitMix64(std::uint64_t& state);

/// Deterministically combines a base seed with a stream index.
std::uint64_t HashSeed(std::uint64_t base, std::uint64_t stream);

}  // namespace microrec
