#include "exec/parallel.hpp"

#include <thread>

#include "common/rng.hpp"

namespace microrec::exec {

std::size_t DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ResolveThreads(std::size_t requested) {
  return requested == 0 ? DefaultThreads() : requested;
}

ParallelRunner::ParallelRunner(ExecConfig config)
    : threads_(ResolveThreads(config.threads)) {
  if (threads_ > 1) pool_.emplace(threads_);
}

std::uint64_t ParallelRunner::SubSeed(std::uint64_t base_seed,
                                      std::uint64_t index) {
  return HashSeed(base_seed, index);
}

}  // namespace microrec::exec
