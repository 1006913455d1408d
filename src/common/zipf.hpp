// Zipfian index sampling for skewed embedding-access workloads.
//
// Recommendation traffic is heavily skewed (a few hot users/items dominate);
// the paper's on-chip caching rule (heuristic rule 4) and our serving
// simulations both exercise skewed access streams.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace microrec {

/// Samples ranks in [0, n) with probability proportional to 1/(rank+1)^theta.
/// Uses the Gray/ YCSB-style rejection-inversion free method with a
/// precomputed harmonic normaliser: O(1) per sample. Setup sums the
/// normaliser once per distinct (n, theta) in the process (see
/// GeneralizedHarmonic); later samplers of the same shape reuse it.
class ZipfSampler {
 public:
  /// n must be >= 1; theta in [0, ~2]. theta == 0 degenerates to uniform.
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  /// Draws one rank in [0, n).
  std::uint64_t Sample(Rng& rng) const;

  /// Exact probability mass of a given rank (for tests).
  double Pmf(std::uint64_t rank) const;

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;    // generalized harmonic H_{n,theta}
  double zeta2_;    // H_{2,theta}
  double alpha_;
  double eta_;
  double rank1_bound_;  // 1 + 0.5^theta: u * zetan_ below it draws rank 1
};

/// Generalized harmonic number H_{n,theta} = sum_{i=1..n} 1/i^theta.
/// O(n) exact for n <= 2^20 (summed in index order), that exact prefix
/// plus an asymptotic tail for larger n. Memoized per (n, theta) and safe
/// to call from any thread: a repeated call returns the identical double.
double GeneralizedHarmonic(std::uint64_t n, double theta);

}  // namespace microrec
