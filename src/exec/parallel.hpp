// Deterministic parallel experiment engine.
//
// Every sweep CLI, ablation bench, and Monte-Carlo study in the repo is a
// map over *independent* experiment points: point i depends only on its
// index, its own sub-seeded RNG streams, and shared read-only state (the
// model, the engine timing, the arrival vector). ParallelRunner shards
// such maps across the common ThreadPool while keeping the output
// bit-identical to a serial run:
//
//   * results land in a pre-sized vector at their point index, so the
//     reduction order is the index order no matter which thread finished
//     first or last;
//   * randomized points derive their seed as SubSeed(base, index)
//     (SplitMix64 seed hashing, the same scheme DeltaStream and the fault
//     schedule already use per stream) -- never from a shared generator
//     whose consumption order would depend on scheduling.
//
// With threads == 1 the runner degenerates to a plain in-order loop with no
// pool -- that loop *is* the definition of the serial baseline the
// N-thread run must reproduce, and tests/exec_test.cpp + bench_wallclock
// enforce the equivalence end to end. See DESIGN.md section 11 for the
// contract.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"

namespace microrec::exec {

/// Hardware thread count (>= 1) as the default parallelism.
std::size_t DefaultThreads();

/// Maps the CLI convention onto a concrete thread count: 0 = "pick for me"
/// (DefaultThreads), anything else is taken literally.
std::size_t ResolveThreads(std::size_t requested);

struct ExecConfig {
  /// Worker threads; 1 runs inline on the caller with no pool, 0 resolves
  /// to DefaultThreads().
  std::size_t threads = 1;

  static ExecConfig WithThreads(std::size_t threads) {
    ExecConfig config;
    config.threads = threads;
    return config;
  }
};

class ParallelRunner {
 public:
  explicit ParallelRunner(ExecConfig config = {});

  std::size_t threads() const { return threads_; }

  /// The sub-seeding scheme: point `index` of a run seeded with `base`
  /// draws from an RNG stream seeded HashSeed(base, index). Exposed so
  /// callers (and tests) can name the contract instead of re-deriving it.
  static std::uint64_t SubSeed(std::uint64_t base_seed, std::uint64_t index);

  /// Runs fn(i) for every i in [0, count) and returns the results in index
  /// order. fn must not mutate shared state (point independence is the
  /// caller's contract; everything else is this class's).
  template <typename Fn>
  auto Map(std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(std::is_default_constructible_v<R>,
                  "Map results are pre-sized; R needs a default ctor");
    std::vector<R> results(count);
    RunIndexed(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  /// Runs body(i) for i in [0, count): inline in order when threads_ == 1,
  /// otherwise one point per shard, claimed by workers as they free up --
  /// points are whole simulations of uneven cost, so this balances load.
  /// The first worker exception (in point order) propagates after all
  /// points finish.
  template <typename Body>
  void RunIndexed(std::size_t count, Body&& body) {
    if (!pool_.has_value()) {
      for (std::size_t i = 0; i < count; ++i) body(i);
      return;
    }
    pool_->ParallelFor(count, /*grain=*/1,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) body(i);
                       });
  }

  std::size_t threads_ = 1;
  std::optional<ThreadPool> pool_;  ///< engaged only when threads_ > 1
};

}  // namespace microrec::exec
