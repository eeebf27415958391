#include "pdc/core/task_group.hpp"

#include <bit>

namespace pdc::core {

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructor must not throw; wait() explicitly rethrows for callers.
  }
}

void TaskGroup::spawn(std::function<void()> fn) {
  std::lock_guard lk(m_);
  TeamPool::Job& job = jobs_.emplace_back(std::move(fn));
  try {
    TeamPool::instance().offer(job);
  } catch (...) {
    jobs_.pop_back();  // never queued, so nothing points at it
    throw;
  }
}

void TaskGroup::wait() {
  std::exception_ptr first_error;
  // Tasks may spawn more while we join, so re-read the size each round.
  for (std::size_t i = 0;; ++i) {
    TeamPool::Job* job = nullptr;
    {
      std::lock_guard lk(m_);
      if (i == jobs_.size()) {
        jobs_.clear();
        break;
      }
      job = &jobs_[i];
    }
    TeamPool::instance().join(*job);
    if (!first_error) first_error = job->error();
  }
  if (first_error) std::rethrow_exception(first_error);
}

int fork_depth_for_threads(int threads) {
  if (threads <= 1) return 0;
  return static_cast<int>(std::bit_width(static_cast<unsigned>(threads - 1)));
}

}  // namespace pdc::core
