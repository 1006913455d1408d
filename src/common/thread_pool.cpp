#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/status.hpp"

namespace microrec {

/// One ParallelFor call, owned by the calling thread's stack frame. The
/// shape fields are fixed before the job is published; the rest is
/// guarded by the pool mutex.
struct ThreadPool::Job {
  ShardFn fn;
  std::size_t count = 0;
  std::size_t grain = 0;
  std::size_t shards = 0;
  std::size_t claimed = 0;   ///< shards handed to a worker
  std::size_t finished = 0;  ///< shards that returned or threw
  std::exception_ptr error = nullptr;  ///< from the lowest failing shard
  std::size_t error_shard = 0;
  Job* next = nullptr;
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  MICROREC_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Run(std::size_t count, std::size_t grain, ShardFn fn) {
  if (count == 0) return;
  const std::size_t workers = workers_.size();
  if (grain == 0) grain = count / workers + (count % workers != 0);
  const std::size_t shards = count / grain + (count % grain != 0);
  if (shards == 1) {
    fn(0, count);
    return;
  }
  Job job{.fn = fn, .count = count, .grain = grain, .shards = shards};
  {
    std::lock_guard lock(mutex_);
    (tail_ == nullptr ? head_ : tail_->next) = &job;
    tail_ = &job;
  }
  work_cv_.notify_all();
  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&job] { return job.finished == job.shards; });
  }
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || head_ != nullptr; });
    if (head_ == nullptr) return;  // stopping, and no shard left to claim
    Job& job = *head_;
    const std::size_t shard = job.claimed++;
    if (job.claimed == job.shards) {
      head_ = job.next;
      if (head_ == nullptr) tail_ = nullptr;
    }
    lock.unlock();
    const std::size_t begin = shard * job.grain;
    std::exception_ptr error;
    try {
      job.fn(begin, begin + std::min(job.grain, job.count - begin));
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr && (job.error == nullptr || shard < job.error_shard)) {
      job.error = error;
      job.error_shard = shard;
    }
    // The caller may return, ending the job's lifetime, as soon as the
    // lock is released after the last shard: touch nothing of it after.
    if (++job.finished == job.shards) done_cv_.notify_all();
  }
}

}  // namespace microrec
