#include "pdc/core/team_pool.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "pdc/obs/obs.hpp"

namespace pdc::core {

namespace {

// Brief spin before parking / joining. The container this library targets
// is often oversubscribed (teams larger than the core count), so the spin
// is short and yields: parking is the steady state, the spin only catches
// back-to-back jobs on idle hardware.
template <typename Pred>
bool spin_until(const Pred& done) {
  for (int i = 0; i < 256; ++i) {
    if (done()) return true;
    if ((i & 15) == 15) std::this_thread::yield();
  }
  return done();
}

}  // namespace

void TeamPool::Job::run() noexcept {
  try {
    fn_();
  } catch (...) {
    error_ = std::current_exception();
  }
}

TeamPool& TeamPool::instance() {
  static TeamPool pool;
  return pool;
}

TeamPool::~TeamPool() {
  {
    std::lock_guard lk(m_);
    stop_ = true;
    for (Worker& w : workers_) {
      w.woken.store(1, std::memory_order_release);
      w.woken.notify_one();
    }
  }
  workers_.clear();  // jthread joins on destruction
}

std::size_t TeamPool::workers_started() const {
  std::lock_guard lk(m_);
  return workers_.size();
}

void TeamPool::start_worker() {
  idle_.push_back(&workers_.emplace_back(*this, workers_.size()));
}

TeamPool::Worker& TeamPool::wake_idle(Region* region, int rank) {
  Worker& w = *idle_.back();
  idle_.pop_back();
  w.region = region;
  w.rank = rank;
  w.woken.store(1, std::memory_order_release);
  w.woken.notify_one();
  return w;
}

void TeamPool::worker_loop(Worker& w, std::size_t index) {
  // The worker's own track for its lifetime; a job may name another one
  // while it runs (a rank's "mp/r"), and the worker comes back here.
  const obs::ThreadLabel label("core.team/" + std::to_string(index + 1));
  while (true) {
    if (!spin_until([&] { return w.woken.load(std::memory_order_acquire); }))
      w.woken.wait(0, std::memory_order_acquire);
    if (Region* r = w.region) {
      r->member(w.rank);
      // Count out without the lock: teammates finish together. Park first,
      // since the launcher returns this worker to idle_ once all have.
      w.woken.store(0, std::memory_order_relaxed);
      if (r->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lk(m_);  // the launcher may be about to wait
        regions_done_.notify_all();
      }
      continue;
    }
    std::unique_lock lk(m_);
    while (!offers_.empty()) {
      Job& job = *offers_.front();
      offers_.pop_front();
      job.started_ = true;
      lk.unlock();
      job.run();
      lk.lock();
      // Notify first: once done_ reads true, the owner may free the job.
      job.done_cv_.notify_one();
      job.done_.store(true, std::memory_order_release);
    }
    if (stop_) return;
    w.woken.store(0, std::memory_order_relaxed);
    idle_.push_back(&w);
  }
}

void TeamPool::run(int threads, const std::function<void(int)>& member) {
  Region region{member, threads - 1};
  {
    std::lock_guard lk(m_);
    // Start every missing worker before handing out any rank, so a failed
    // thread start leaves no member waiting on its teammates.
    while (idle_.size() < static_cast<std::size_t>(threads) - 1)
      start_worker();
    for (int rank = 1; rank < threads; ++rank) {
      Worker& w = wake_idle(&region, rank);
      w.next = std::exchange(region.hired, &w);
    }
  }
  member(0);
  const auto done = [&] {
    return region.remaining.load(std::memory_order_acquire) == 0;
  };
  const bool spun = spin_until(done);
  std::unique_lock lk(m_);
  if (!spun) regions_done_.wait(lk, done);
  for (Worker* w = region.hired; w != nullptr; w = w->next) {
    w->region = nullptr;
    idle_.push_back(w);
  }
  // The freed workers take offers queued while they were busy.
  for (std::size_t n = offers_.size(); n > 0 && !idle_.empty(); --n)
    wake_idle(nullptr, 0);
}

void TeamPool::offer(Job& job) {
  static const std::size_t kOfferWorkers =
      std::max(1u, std::thread::hardware_concurrency());
  std::lock_guard lk(m_);
  // Wake a worker before queueing: if starting one throws, nothing is
  // queued.
  if (idle_.empty() && workers_.size() < kOfferWorkers) start_worker();
  if (!idle_.empty()) wake_idle(nullptr, 0);
  offers_.push_back(&job);
}

void TeamPool::join(Job& job) {
  {
    std::unique_lock lk(m_);
    if (!job.started_) {
      job.started_ = true;
      offers_.erase(std::find(offers_.begin(), offers_.end(), &job));
      lk.unlock();
      job.run();
      return;
    }
  }
  const auto done = [&] { return job.done_.load(std::memory_order_acquire); };
  if (spin_until(done)) return;
  std::unique_lock lk(m_);
  job.done_cv_.wait(lk, done);
}

}  // namespace pdc::core
