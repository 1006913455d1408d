#include "common/rng.hpp"

#include <cmath>

namespace microrec {

namespace {

// One Marsaglia polar candidate: two uniforms mapped to [-1, 1) and their
// squared radius s, accepted when 0 < s < 1. NextGaussian and
// DiscardGaussians both draw through here, so a replay accepts and rejects
// exactly the candidates a real call would.
inline bool PolarCandidate(Rng& rng, double& u, double& v, double& s) {
  u = 2.0 * rng.NextDouble() - 1.0;
  v = 2.0 * rng.NextDouble() - 1.0;
  s = u * u + v * v;
  return !(s >= 1.0 || s == 0.0);
}

// The factor that maps an accepted candidate's u and v to two normals.
inline double PolarScale(double s) {
  return std::sqrt(-2.0 * std::log(s) / s);
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t HashSeed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ull + (stream << 1));
  return SplitMix64(s);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

float Rng::NextFloat(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  while (!PolarCandidate(*this, u, v, s)) {
  }
  const double mul = PolarScale(s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

void Rng::Discard(std::uint64_t n) {
  for (; n > 0; --n) Next();
}

void Rng::DiscardGaussians(std::uint64_t n) {
  if (n == 0) return;
  if (has_spare_gaussian_) {  // the first call returns the pending spare
    has_spare_gaussian_ = false;
    --n;
  }
  // Each accepted pair serves two calls; an odd count leaves the last
  // pair's second value pending as the spare.
  double u = 0.0, v = 0.0, s = 0.0;
  for (std::uint64_t pairs = n / 2 + n % 2; pairs > 0; --pairs) {
    while (!PolarCandidate(*this, u, v, s)) {
    }
  }
  if (n % 2 == 1) {
    spare_gaussian_ = v * PolarScale(s);
    has_spare_gaussian_ = true;
  }
}

}  // namespace microrec
