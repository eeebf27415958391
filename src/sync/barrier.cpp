#include "pdc/sync/barrier.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace pdc::sync {

CyclicBarrier::CyclicBarrier(std::size_t parties) : parties_(parties) {
  if (parties_ == 0) throw std::invalid_argument("parties must be > 0");
}

std::size_t CyclicBarrier::arrive_and_wait() {
  std::size_t my_phase = 0;
  bool last = false;
  {
    std::lock_guard lk(m_);
    if (broken_.load(std::memory_order_relaxed)) throw BrokenBarrierError();
    my_phase = phase_.load(std::memory_order_relaxed);
    last = ++waiting_ == parties_;
    if (last) {
      waiting_ = 0;
      // Release: a poller that reads the new phase sees every write made
      // before any arrival (each arrival's unlock precedes this store).
      phase_.store(my_phase + 1, std::memory_order_release);
    }
  }
  if (last) {
    cv_.notify_all();  // no syscall unless a waiter has parked
    return my_phase;
  }
  const auto released = [&] {
    return phase_.load(std::memory_order_acquire) != my_phase ||
           broken_.load(std::memory_order_acquire);
  };
  // Poll, yielding every few polls so a teammate that shares this CPU
  // still gets to arrive; park once the budget is spent.
  constexpr unsigned kPollsPerYield = 4;
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned polls = 1; !released(); ++polls) {
    if (polls % kPollsPerYield != 0) continue;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::unique_lock lk(m_);
      cv_.wait(lk, released);
      break;
    }
    std::this_thread::yield();
  }
  // Released by break_barrier() rather than a completed phase.
  if (phase_.load(std::memory_order_acquire) == my_phase)
    throw BrokenBarrierError();
  return my_phase;
}

void CyclicBarrier::break_barrier() {
  {
    std::lock_guard lk(m_);
    broken_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

bool CyclicBarrier::broken() const {
  return broken_.load(std::memory_order_acquire);
}

SenseBarrier::SenseBarrier(std::size_t parties)
    : parties_(parties), count_(parties) {
  if (parties_ == 0) throw std::invalid_argument("parties must be > 0");
}

void SenseBarrier::arrive_and_wait() {
  // Capture the phase's sense before decrementing; the releasing thread
  // resets the count *before* flipping the sense so early re-entrants are
  // safe.
  const bool my_sense = sense_.load(std::memory_order_acquire);
  if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    count_.store(parties_, std::memory_order_relaxed);
    sense_.store(!my_sense, std::memory_order_release);
    return;
  }
  int spins = 0;
  while (sense_.load(std::memory_order_acquire) == my_sense) {
    if (++spins > 1024) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

DisseminationBarrier::DisseminationBarrier(std::size_t parties)
    : parties_(parties) {
  if (parties_ == 0) throw std::invalid_argument("parties must be > 0");
  rounds_ = 0;
  for (std::size_t reach = 1; reach < parties_; reach *= 2) ++rounds_;
  flags_.resize(parties_);
  for (auto& per_thread : flags_) {
    per_thread = std::vector<std::atomic<std::uint64_t>>(
        rounds_ == 0 ? 1 : rounds_);
    for (auto& f : per_thread) f.store(0, std::memory_order_relaxed);
  }
  generation_.assign(parties_, 0);
}

void DisseminationBarrier::arrive_and_wait(std::size_t my_index) {
  if (my_index >= parties_) throw std::out_of_range("barrier index");
  const std::uint64_t gen = ++generation_[my_index];
  for (std::size_t k = 0; k < rounds_; ++k) {
    const std::size_t partner = (my_index + (std::size_t{1} << k)) % parties_;
    // Signal the partner's round-k flag (single writer per flag).
    flags_[partner][k].store(gen, std::memory_order_release);
    // Wait for our own round-k flag from (my_index - 2^k) mod P.
    int spins = 0;
    while (flags_[my_index][k].load(std::memory_order_acquire) < gen) {
      if (++spins > 1024) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
}

}  // namespace pdc::sync
