#pragma once
// Reusable synchronization barriers. The threaded Game of Life engine
// crosses two per generation. CS87 contrasts blocking with spinning: the
// centralized CyclicBarrier polls for a bounded time and then parks on a
// condvar (two-phase waiting), while the sense-reversing and
// dissemination barriers spin until released, the low-latency choice
// only when every party has a core of its own.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace pdc::sync {

/// Thrown out of CyclicBarrier::arrive_and_wait() after break_barrier():
/// a teammate failed before arriving, so this phase can never complete.
class BrokenBarrierError : public std::runtime_error {
 public:
  BrokenBarrierError() : std::runtime_error("barrier broken") {}
};

/// Centralized reusable barrier: a mutex-guarded arrival count and an
/// atomic phase number.
///
/// `arrive_and_wait()` blocks until `parties` threads have arrived; the
/// barrier then resets for the next phase (the phase number prevents a
/// fast thread from lapping a slow one). A waiter first polls the phase
/// for up to kSpinBudget, yielding its CPU every few polls, and only then
/// parks on a condition variable. The poll catches the short waits of a
/// stencil step without the tens of microseconds a futex wake-up costs;
/// the yields and the time bound keep an oversubscribed team, whose late
/// party may need the waiter's CPU, from burning it.
///
/// A barrier can be *broken* (break_barrier()) when one participant will
/// never arrive — e.g. it threw out of its SPMD body. Current and future
/// waiters then raise BrokenBarrierError instead of blocking forever,
/// which is how pdc::core::Team unwinds a failed region without deadlock.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(std::size_t parties);

  /// Returns the phase number that just completed (0-based), identical for
  /// every thread released together. Throws BrokenBarrierError if the
  /// barrier is (or becomes) broken before the phase completes.
  std::size_t arrive_and_wait();

  /// Permanently break the barrier: wake every waiter with
  /// BrokenBarrierError and make future arrivals throw immediately.
  void break_barrier();

  [[nodiscard]] bool broken() const;

  [[nodiscard]] std::size_t parties() const { return parties_; }

  /// How long a waiter polls before it parks.
  static constexpr std::chrono::microseconds kSpinBudget{100};

 private:
  const std::size_t parties_;
  std::mutex m_;
  std::condition_variable cv_;
  std::size_t waiting_ = 0;  // guarded by m_
  // Written under m_, so a parked waiter cannot miss a change; read
  // without it by polling waiters.
  std::atomic<std::size_t> phase_{0};
  std::atomic<bool> broken_{false};
};

/// Sense-reversing spinning barrier: no syscalls, just atomics — the
/// low-latency variant for short phases on dedicated cores.
class SenseBarrier {
 public:
  explicit SenseBarrier(std::size_t parties);

  void arrive_and_wait();

  [[nodiscard]] std::size_t parties() const { return parties_; }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> count_;
  std::atomic<bool> sense_{false};
};

/// Dissemination barrier: ceil(log2 P) rounds; in round k, thread i
/// signals thread (i + 2^k) mod P and waits for (i - 2^k) mod P. No
/// central counter — every flag is written by exactly one thread per
/// phase, so contention is O(1) per location (the scalable textbook
/// barrier, and the software analog of the mp tree collectives).
///
/// Unlike the other barriers, threads must identify themselves:
/// call arrive_and_wait(my_index) with a stable index in [0, parties).
class DisseminationBarrier {
 public:
  explicit DisseminationBarrier(std::size_t parties);

  void arrive_and_wait(std::size_t my_index);

  [[nodiscard]] std::size_t parties() const { return parties_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }

 private:
  const std::size_t parties_;
  std::size_t rounds_;
  // flags_[thread][round]: generation counter written by the signaler.
  std::vector<std::vector<std::atomic<std::uint64_t>>> flags_;
  std::vector<std::uint64_t> generation_;  // per-thread local phase count
};

}  // namespace pdc::sync
