// Minimal fixed-size thread pool used by the CPU baseline engine to shard
// each inference batch over worker threads (mirroring the multi-core
// TensorFlow-Serving baseline in the paper) and by the exec engine
// (src/exec/) to shard sweep points and Monte-Carlo replications.
//
// ParallelFor is the only way to hand the pool work, and it performs no
// heap allocation: the caller publishes a job that lives on its own stack,
// workers claim the job's shards one at a time under the pool mutex as
// they free up, and the caller sleeps until every shard has finished.
// Several threads may call ParallelFor on one pool at once; their jobs are
// served in arrival order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace microrec {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Splits [0, count) into contiguous shards of `grain` indices (the last
  /// may be smaller), runs fn(shard_begin, shard_end) for every shard on
  /// the workers, and blocks until all complete. Workers claim shards as
  /// they free up, so grain 1 balances uneven per-index work. grain == 0
  /// picks one shard per worker. A job of a single shard runs inline on
  /// the caller.
  ///
  /// `fn` is called through a non-owning reference -- never copied or
  /// type-erased onto the heap -- so ParallelFor allocates nothing. It must
  /// not call ParallelFor on the same pool: every worker could then be
  /// waiting on a shard that no free worker is left to run.
  ///
  /// Always joins every shard before returning, even when a shard throws:
  /// the first worker exception (in shard order) is rethrown to the caller
  /// after all shards have finished, so `fn` and any state it captures by
  /// reference are never touched by a still-running worker after
  /// ParallelFor returns or throws.
  template <typename Fn>
  void ParallelFor(std::size_t count, std::size_t grain, Fn&& fn) {
    Run(count, grain, ShardFn(fn));
  }
  template <typename Fn>
  void ParallelFor(std::size_t count, Fn&& fn) {
    Run(count, /*grain=*/0, ShardFn(fn));
  }

 private:
  /// Non-owning reference to a caller's fn(begin, end): an object pointer
  /// plus a trampoline that restores its type.
  class ShardFn {
   public:
    template <typename Fn>
    explicit ShardFn(Fn& fn)
        : target_(const_cast<void*>(
              static_cast<const void*>(std::addressof(fn)))),
          call_([](void* target, std::size_t begin, std::size_t end) {
            (*static_cast<Fn*>(target))(begin, end);
          }) {}

    void operator()(std::size_t begin, std::size_t end) const {
      call_(target_, begin, end);
    }

   private:
    void* target_;
    void (*call_)(void*, std::size_t, std::size_t);
  };

  struct Job;

  void Run(std::size_t count, std::size_t grain, ShardFn fn);
  void WorkerLoop();

  std::mutex mutex_;
  Job* head_ = nullptr;  ///< jobs with unclaimed shards, oldest first
  Job* tail_ = nullptr;
  bool stopping_ = false;
  std::condition_variable work_cv_;  ///< workers: a job arrived, or stop
  std::condition_variable done_cv_;  ///< callers: a job's last shard ended
  std::vector<std::thread> workers_;  // last: workers use every member above
};

}  // namespace microrec
