#pragma once
// Fork-join helpers (Core Guidelines CP.4: think in terms of tasks). Both
// offer their work to the TeamPool's workers and help first: work that no
// worker has started by the time its result is needed runs on the thread
// that needs it, so neither ever waits on a busy pool or deadlocks on one.
//
//  - TaskGroup: spawn independent tasks and wait for all of them;
//    exceptions are collected and one is rethrown at wait().
//  - invoke_parallel: structured two-way fork-join for divide-and-conquer.
//    One branch is offered to the pool and the caller runs the other, then
//    the offered one too if no worker has started it. The depth budget
//    bounds how deep the recursion keeps offering work to the pool.

#include <deque>
#include <exception>
#include <functional>
#include <mutex>

#include "pdc/core/team_pool.hpp"

namespace pdc::core {

/// Awaits a dynamic set of independent tasks run on the TeamPool.
class TaskGroup {
 public:
  TaskGroup() = default;

  /// Not copyable/movable: the pool holds pointers to queued tasks.
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// `wait()`s if the caller forgot to (std::terminate-safe destruction).
  ~TaskGroup();

  /// Schedule `fn` to run concurrently. Tasks may spawn into their own
  /// group.
  void spawn(std::function<void()> fn);

  /// Block until every spawned task has finished, running here any task
  /// no worker has started; then rethrow the exception of the
  /// earliest-spawned task that threw. The group is reusable afterwards.
  void wait();

 private:
  std::mutex m_;                    // guards jobs_
  std::deque<TeamPool::Job> jobs_;  // a deque: offered jobs never move
};

/// Run `f` and `g` potentially in parallel and return when both are done.
/// `depth_budget` > 0 offers `f` to the pool (running it inline if no
/// worker has started it once `g` is done); 0 runs both inline. Exceptions
/// propagate (if both throw, `f`'s wins).
template <typename F, typename G>
void invoke_parallel(F&& f, G&& g, int depth_budget) {
  if (depth_budget <= 0) {
    f();
    g();
    return;
  }
  TeamPool& pool = TeamPool::instance();
  TeamPool::Job offered([&f] { f(); });
  pool.offer(offered);
  std::exception_ptr g_error;
  try {
    g();
  } catch (...) {
    g_error = std::current_exception();
  }
  pool.join(offered);
  if (offered.error()) std::rethrow_exception(offered.error());
  if (g_error) std::rethrow_exception(g_error);
}

/// Depth budget that bounds forked threads to about `threads`:
/// ceil(log2(threads)), and 0 for `threads` <= 1.
[[nodiscard]] int fork_depth_for_threads(int threads);

}  // namespace pdc::core
