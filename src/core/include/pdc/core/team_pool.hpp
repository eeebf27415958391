#pragma once
// The process-wide pool of parked worker threads behind every parallel
// construct in pdc::core and every in-process mp::Communicator world.
// Workers are started on demand, and each is handed one job at a time,
// of two kinds:
//  - A region member. Team::run(P) takes P-1 idle workers for ranks
//    1..P-1, starting more when too few are idle, and runs rank 0 on the
//    caller's thread. Regions launched from inside a region, or from
//    several threads at once, are served the same way. An in-process mp
//    world is one such region, one mp rank per member.
//  - An offered Job: invoke_parallel's forked branch or a TaskGroup task.
//    It waits in a FIFO queue for an idle worker or for the next one that
//    frees up. Its owner's join() runs it inline if no worker has started
//    it by then (help-first), so an offer never waits on a busy pool.
//
// Thread bound: a region starts workers only when too few are idle for
// its ranks, and then hires every idle one too; an offer starts a worker
// only while fewer than std::thread::hardware_concurrency() exist. So
// offers never grow the pool past hardware_concurrency(), however deep a
// fork-join recursion goes, and the pool never holds more than
// max(hardware_concurrency(), the most workers busy at once) threads.
// Teams larger than the hardware thread count are allowed: the
// scalability labs deliberately oversubscribe.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdc::core {

/// Process-wide pool of parked workers (see file comment).
class TeamPool {
 public:
  /// Work offered to the pool. Its owner keeps it alive until join()
  /// returns.
  class Job {
   public:
    explicit Job(std::function<void()> fn) : fn_(std::move(fn)) {}
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

    /// The exception the job threw, if any; read it after join().
    [[nodiscard]] std::exception_ptr error() const { return error_; }

   private:
    friend class TeamPool;
    void run() noexcept;

    std::function<void()> fn_;
    std::exception_ptr error_;
    bool started_ = false;  // guarded by the pool's m_
    std::atomic<bool> done_{false};  // set under m_, after done_cv_ is told
    std::condition_variable done_cv_;  // the owner parks here, with m_
  };

  static TeamPool& instance();

  TeamPool(const TeamPool&) = delete;
  TeamPool& operator=(const TeamPool&) = delete;

  /// Run `member(rank)` for every rank of a `threads`-rank region
  /// (`threads` >= 1), each on its own thread: workers run ranks
  /// 1..threads-1, the caller rank 0. Returns when all have finished.
  /// `member` must not throw.
  void run(int threads, const std::function<void(int)>& member);

  /// Queue `job` for the next free worker.
  void offer(Job& job);

  /// Return once `job` has run: on this thread if no worker has started it
  /// yet, else once the worker that did has finished it.
  void join(Job& job);

  /// Workers started so far (grows on demand; see the bound above).
  [[nodiscard]] std::size_t workers_started() const;

 private:
  struct Worker;

  struct Region {
    const std::function<void(int)>& member;
    std::atomic<int> remaining;  // members still running
    Worker* hired = nullptr;     // its workers, chained through next
  };

  struct Worker {
    Worker(TeamPool& pool, std::size_t index)
        : thread([this, &pool, index] { pool.worker_loop(*this, index); }) {}

    // Set under m_ before `woken`: the region member to run, or a null
    // region to serve the offer queue.
    Region* region = nullptr;
    int rank = 0;
    Worker* next = nullptr;     // the next worker hired by the same region
    std::atomic<int> woken{0};  // 1 once handed work; the worker parks on it
    std::jthread thread;        // last: it runs on the members above
  };

  TeamPool() = default;
  ~TeamPool();

  void start_worker();                          // m_ held; adds it to idle_
  Worker& wake_idle(Region* region, int rank);  // m_ held
  void worker_loop(Worker& w, std::size_t index);

  // Guards the members below, Job::started_ and the fields a worker is
  // handed (Worker::region, rank, next; Region::hired).
  mutable std::mutex m_;
  std::condition_variable regions_done_;  // launchers park here, with m_
  std::deque<Worker> workers_;            // a deque: workers never move
  std::vector<Worker*> idle_;
  std::deque<Job*> offers_;  // offered, not yet started
  bool stop_ = false;
};

}  // namespace pdc::core
