#include "common/zipf.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/status.hpp"

namespace microrec {

namespace {

constexpr std::uint64_t kExactCutoff = 1u << 20;

// Exact summation below the cutoff; Euler-Maclaurin tail above it. The
// approximation error is far below what any sampler statistic can resolve.
double ComputeHarmonic(std::uint64_t n, double theta) {
  if (n <= kExactCutoff) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      sum += std::pow(static_cast<double>(i), -theta);
    }
    return sum;
  }
  double sum = GeneralizedHarmonic(kExactCutoff, theta);
  const double a = static_cast<double>(kExactCutoff);
  const double b = static_cast<double>(n);
  if (std::abs(theta - 1.0) < 1e-12) {
    sum += std::log(b / a);
  } else {
    sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
           (1.0 - theta);
  }
  // First-order Euler-Maclaurin correction terms.
  sum += 0.5 * (std::pow(b, -theta) - std::pow(a, -theta));
  return sum;
}

}  // namespace

double GeneralizedHarmonic(std::uint64_t n, double theta) {
  // Memoized per (n, theta's bit pattern). An exact 2^20-term sum costs
  // tens of ms, and every hot-cache fleet build and delta stream asks for
  // the same few; the sum is a pure function of its key, so a hit is the
  // identical double. The lock is not held while summing: two threads
  // that miss together both compute, and the second insert is a no-op.
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, std::uint64_t>, double> memo;
  const std::pair<std::uint64_t, std::uint64_t> key{
      n, std::bit_cast<std::uint64_t>(theta)};
  {
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = memo.find(key);
    if (it != memo.end()) return it->second;
  }
  const double sum = ComputeHarmonic(n, theta);
  const std::lock_guard<std::mutex> lock(mu);
  memo.emplace(key, sum);
  return sum;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  MICROREC_CHECK(n >= 1);
  MICROREC_CHECK(theta >= 0.0);
  zetan_ = GeneralizedHarmonic(n_, theta_);
  zeta2_ = GeneralizedHarmonic(2, theta_);
  alpha_ = (theta_ == 1.0) ? 0.0 : 1.0 / (1.0 - theta_);
  eta_ = (n_ == 1 || theta_ == 1.0)
             ? 0.0
             : (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
                   (1.0 - zeta2_ / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta_);
}

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  if (theta_ == 0.0) return rng.NextBounded(n_);
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
  if (theta_ == 1.0) {
    // Inverse-CDF on the continuous approximation for the harmonic case.
    const double rank = std::exp(u * std::log(static_cast<double>(n_)));
    const auto r = static_cast<std::uint64_t>(rank) - 1;
    return r >= n_ ? n_ - 1 : r;
  }
  const double rank =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  auto r = static_cast<std::uint64_t>(rank);
  return r >= n_ ? n_ - 1 : r;
}

double ZipfSampler::Pmf(std::uint64_t rank) const {
  MICROREC_CHECK(rank < n_);
  return std::pow(static_cast<double>(rank + 1), -theta_) / zetan_;
}

}  // namespace microrec
