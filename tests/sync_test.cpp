// Tests for pdc::sync — locks, semaphore, bounded buffer, barriers, and
// deadlock detection. Concurrency tests use modest thread counts and real
// contention to exercise the primitives' mutual-exclusion invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "pdc/sync/barrier.hpp"
#include "pdc/sync/bounded_buffer.hpp"
#include "pdc/sync/deadlock.hpp"
#include "pdc/sync/rwlock.hpp"
#include "pdc/sync/semaphore.hpp"
#include "pdc/sync/spinlock.hpp"

namespace ps = pdc::sync;
using namespace std::chrono_literals;

// ---------------------------------------------------------------- locks ---

// Mutual exclusion property: N threads increment a plain int M times each
// under the lock; the final count must be exactly N*M.
template <typename Lock>
void check_mutual_exclusion() {
  Lock lock;
  long long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kIters; ++i) {
          std::lock_guard guard(lock);
          ++counter;
        }
      });
    }
  }
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIters);
}

TEST(SpinLock, TasMutualExclusion) { check_mutual_exclusion<ps::TasSpinLock>(); }
TEST(SpinLock, TtasMutualExclusion) {
  check_mutual_exclusion<ps::TtasSpinLock>();
}
TEST(SpinLock, TicketMutualExclusion) {
  check_mutual_exclusion<ps::TicketLock>();
}

TEST(SpinLock, TryLockSemantics) {
  ps::TasSpinLock tas;
  EXPECT_TRUE(tas.try_lock());
  EXPECT_FALSE(tas.try_lock());
  tas.unlock();
  EXPECT_TRUE(tas.try_lock());
  tas.unlock();

  ps::TtasSpinLock ttas;
  EXPECT_TRUE(ttas.try_lock());
  EXPECT_FALSE(ttas.try_lock());
  ttas.unlock();

  ps::TicketLock ticket;
  EXPECT_TRUE(ticket.try_lock());
  EXPECT_FALSE(ticket.try_lock());
  ticket.unlock();
  EXPECT_TRUE(ticket.try_lock());
  ticket.unlock();
}

TEST(SpinLock, TicketLockIsFifoUnderSequentialHandoff) {
  // Acquire in a fixed order from many threads, record service order.
  ps::TicketLock lock;
  std::vector<int> service_order;
  std::atomic<int> arrivals{0};
  constexpr int kThreads = 4;
  {
    std::vector<std::jthread> threads;
    lock.lock();  // hold so all threads queue up
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Serialize arrival (ticket draw happens inside lock()).
        while (arrivals.load() != t) std::this_thread::yield();
        arrivals.store(t + 1);
        // Small stagger so ticket order matches arrival order.
        lock.lock();
        service_order.push_back(t);
        lock.unlock();
      });
    }
    while (arrivals.load() != kThreads) std::this_thread::yield();
    std::this_thread::sleep_for(20ms);  // let all threads draw tickets
    lock.unlock();
  }
  // FIFO: service order equals arrival order.
  std::vector<int> expected(kThreads);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(service_order, expected);
}

// --------------------------------------------------------------- rwlock ---

TEST(RwLock, MultipleReadersShare) {
  ps::RwLock rw;
  rw.lock_shared();
  rw.lock_shared();
  const auto st = rw.state();
  EXPECT_EQ(st.active_readers, 2);
  EXPECT_FALSE(st.active_writer);
  rw.unlock_shared();
  rw.unlock_shared();
}

TEST(RwLock, WriterExcludesReaders) {
  ps::RwLock rw;
  rw.lock();
  EXPECT_FALSE(rw.try_lock_shared());
  EXPECT_FALSE(rw.try_lock());
  rw.unlock();
  EXPECT_TRUE(rw.try_lock_shared());
  rw.unlock_shared();
}

TEST(RwLock, WaitingWriterBlocksNewReaders) {
  ps::RwLock rw;
  rw.lock_shared();  // reader in
  std::atomic<bool> writer_done{false};
  std::jthread writer([&] {
    rw.lock();  // queues behind the reader
    writer_done = true;
    rw.unlock();
  });
  // Give the writer time to queue.
  while (rw.state().waiting_writers == 0) std::this_thread::yield();
  // Writer preference: a new reader must not jump the queue.
  EXPECT_FALSE(rw.try_lock_shared());
  rw.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_done);
}

TEST(RwLock, ReaderWriterDataConsistency) {
  ps::RwLock rw;
  // Writers keep an invariant (a == b); readers must never observe a tear.
  long a = 0, b = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < 2; ++w) {
      threads.emplace_back([&] {
        for (int i = 0; i < 5000; ++i) {
          std::lock_guard guard(rw);
          ++a;
          ++b;
        }
      });
    }
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&] {
        while (!stop.load()) {
          rw.lock_shared();
          if (a != b) violations.fetch_add(1);
          rw.unlock_shared();
        }
      });
    }
    // Writers finish, then stop the readers.
    threads[0].join();
    threads[1].join();
    stop = true;
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(a, 10000);
  EXPECT_EQ(b, 10000);
}

// ------------------------------------------------------------ semaphore ---

TEST(Semaphore, RejectsNegativeInitial) {
  EXPECT_THROW((void)ps::Semaphore(-1), std::invalid_argument);
}

TEST(Semaphore, TryAcquireTracksCount) {
  ps::Semaphore sem(2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_EQ(sem.count(), 0);
}

TEST(Semaphore, TimedAcquireTimesOut) {
  ps::Semaphore sem(0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(sem.try_acquire_for(30ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
}

TEST(Semaphore, ReleaseWakesBlockedAcquirer) {
  ps::Semaphore sem(0);
  std::atomic<bool> acquired{false};
  std::jthread waiter([&] {
    sem.acquire();
    acquired = true;
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(acquired);
  sem.release();
  waiter.join();
  EXPECT_TRUE(acquired);
}

TEST(Semaphore, BoundsConcurrencyLikeAPool) {
  // Semaphore of K permits: never more than K threads inside the region.
  ps::Semaphore sem(3);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          sem.acquire();
          const int now = inside.fetch_add(1) + 1;
          int prev = max_inside.load();
          while (now > prev && !max_inside.compare_exchange_weak(prev, now)) {
          }
          inside.fetch_sub(1);
          sem.release();
        }
      });
    }
  }
  EXPECT_LE(max_inside.load(), 3);
  EXPECT_GE(max_inside.load(), 1);
}

// ------------------------------------------------------- bounded buffer ---

TEST(BoundedBuffer, RejectsZeroCapacity) {
  EXPECT_THROW((void)ps::BoundedBuffer<int>(0), std::invalid_argument);
}

TEST(BoundedBuffer, FifoOrderSingleThread) {
  ps::BoundedBuffer<int> buf(4);
  EXPECT_TRUE(buf.push(1));
  EXPECT_TRUE(buf.push(2));
  EXPECT_TRUE(buf.push(3));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.pop().value(), 1);
  EXPECT_EQ(buf.pop().value(), 2);
  EXPECT_EQ(buf.pop().value(), 3);
  EXPECT_EQ(buf.try_pop(), std::nullopt);
}

TEST(BoundedBuffer, TryPushRespectsCapacity) {
  ps::BoundedBuffer<int> buf(2);
  EXPECT_TRUE(buf.try_push(1));
  EXPECT_TRUE(buf.try_push(2));
  EXPECT_FALSE(buf.try_push(3));
  (void)buf.pop();
  EXPECT_TRUE(buf.try_push(3));
}

TEST(BoundedBuffer, CloseDrainsThenSignalsEnd) {
  ps::BoundedBuffer<int> buf(4);
  (void)buf.push(1);
  (void)buf.push(2);
  buf.close();
  EXPECT_FALSE(buf.push(3));  // producer sees closed
  EXPECT_EQ(buf.pop().value(), 1);
  EXPECT_EQ(buf.pop().value(), 2);
  EXPECT_EQ(buf.pop(), std::nullopt);  // drained
}

TEST(BoundedBuffer, ProducerConsumerDeliversEverythingExactlyOnce) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 4000;
  ps::BoundedBuffer<int> buf(16);
  std::atomic<long long> sum{0};
  std::atomic<int> consumed{0};
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i)
          ASSERT_TRUE(buf.push(p * kPerProducer + i));
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        while (auto v = buf.pop()) {
          sum.fetch_add(*v);
          consumed.fetch_add(1);
        }
      });
    }
    // Join producers (first kProducers threads), then close.
    for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
    buf.close();
  }
  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedBuffer, TimedPopTimesOutOnEmptyThenSucceeds) {
  ps::BoundedBuffer<int> buf(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(buf.try_pop_for(30ms), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
  (void)buf.push(7);
  EXPECT_EQ(buf.try_pop_for(30ms).value(), 7);
}

TEST(BoundedBuffer, TimedPushTimesOutOnFullThenSucceeds) {
  ps::BoundedBuffer<int> buf(1);
  (void)buf.push(1);  // full
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(buf.try_push_for(2, 30ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
  (void)buf.pop();
  EXPECT_TRUE(buf.try_push_for(2, 30ms));
  EXPECT_EQ(buf.pop().value(), 2);
}

TEST(BoundedBuffer, TimedPopWokenByConcurrentPush) {
  ps::BoundedBuffer<int> buf(2);
  std::jthread producer([&] {
    std::this_thread::sleep_for(10ms);
    (void)buf.push(42);
  });
  // Generous budget: the wait must end early, on the push.
  EXPECT_EQ(buf.try_pop_for(5000ms).value(), 42);
}

TEST(BoundedBuffer, TimedOpsSeeClose) {
  ps::BoundedBuffer<int> buf(1);
  (void)buf.push(1);
  buf.close();
  EXPECT_FALSE(buf.try_push_for(2, 5000ms));       // closed: no wait
  EXPECT_EQ(buf.try_pop_for(5000ms).value(), 1);   // drains the queue
  EXPECT_EQ(buf.try_pop_for(5000ms), std::nullopt);  // closed and drained
}

TEST(Semaphore, TimedAcquireSucceedsWhenPermitArrives) {
  ps::Semaphore sem(0);
  std::jthread releaser([&] {
    std::this_thread::sleep_for(10ms);
    sem.release();
  });
  EXPECT_TRUE(sem.try_acquire_for(5000ms));
  EXPECT_FALSE(sem.try_acquire());  // the permit was consumed
}

TEST(BoundedBuffer, CloseUnblocksWaitingProducer) {
  ps::BoundedBuffer<int> buf(1);
  (void)buf.push(1);  // full
  std::atomic<bool> returned{false};
  std::jthread producer([&] {
    EXPECT_FALSE(buf.push(2));  // blocks, then fails on close
    returned = true;
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(returned);
  buf.close();
  producer.join();
  EXPECT_TRUE(returned);
}

// -------------------------------------------------------------- barrier ---

TEST(CyclicBarrier, RejectsZeroParties) {
  EXPECT_THROW((void)ps::CyclicBarrier(0), std::invalid_argument);
}

namespace {

// Phase-ordering violations seen by `threads` threads crossing one
// CyclicBarrier 50 times: after each crossing, every thread must have
// finished the phase.
int cyclic_barrier_violations(int threads) {
  constexpr int kPhases = 50;
  ps::CyclicBarrier barrier(static_cast<std::size_t>(threads));
  std::vector<std::atomic<int>> phase_done(kPhases);
  for (auto& p : phase_done) p = 0;
  std::atomic<int> violations{0};
  {
    std::vector<std::jthread> members;
    for (int t = 0; t < threads; ++t) {
      members.emplace_back([&] {
        for (int ph = 0; ph < kPhases; ++ph) {
          phase_done[static_cast<std::size_t>(ph)].fetch_add(1);
          barrier.arrive_and_wait();
          if (phase_done[static_cast<std::size_t>(ph)].load() != threads)
            violations.fetch_add(1);
        }
      });
    }
  }
  return violations.load();
}

}  // namespace

TEST(CyclicBarrier, SynchronizesPhases) {
  EXPECT_EQ(cyclic_barrier_violations(4), 0);
}

TEST(CyclicBarrier, SynchronizesPhasesOversubscribed) {
  // More parties than CPUs: a waiter's polling must leave the CPU to the
  // parties that have yet to arrive.
  const auto hc = std::max(1u, std::thread::hardware_concurrency());
  const auto parties = static_cast<int>(std::min(16u, 4 * hc));
  EXPECT_EQ(cyclic_barrier_violations(parties), 0);
}

TEST(CyclicBarrier, ReturnsMatchingPhaseNumbers) {
  ps::CyclicBarrier barrier(2);
  std::size_t phase_a = 99, phase_b = 99;
  {
    std::jthread a([&] { phase_a = barrier.arrive_and_wait(); });
    std::jthread b([&] { phase_b = barrier.arrive_and_wait(); });
  }
  EXPECT_EQ(phase_a, 0u);
  EXPECT_EQ(phase_b, 0u);
}

TEST(CyclicBarrier, BreakReleasesWaitersAndPoisonsFutureArrivals) {
  ps::CyclicBarrier barrier(3);
  std::atomic<int> broken_count{0};
  {
    std::vector<std::jthread> waiters;
    for (int t = 0; t < 2; ++t) {
      waiters.emplace_back([&] {
        try {
          barrier.arrive_and_wait();  // party 3 never arrives
        } catch (const ps::BrokenBarrierError&) {
          broken_count.fetch_add(1);
        }
      });
    }
    // Give the waiters a chance to block, then break instead of arriving.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    barrier.break_barrier();
  }
  EXPECT_EQ(broken_count.load(), 2);
  EXPECT_TRUE(barrier.broken());
  // Late arrivals fail fast rather than waiting on a dead phase.
  EXPECT_THROW(barrier.arrive_and_wait(), ps::BrokenBarrierError);
}

TEST(CyclicBarrier, BreakReleasesWaitersStillPolling) {
  // No sleep before the break: it lands within the waiters' polling
  // budget, before they park (or, in some rounds, before they arrive).
  for (int round = 0; round < 100; ++round) {
    ps::CyclicBarrier barrier(3);
    std::atomic<int> arriving{0};
    std::atomic<int> broken_count{0};
    {
      std::vector<std::jthread> waiters;
      for (int t = 0; t < 2; ++t) {
        waiters.emplace_back([&] {
          arriving.fetch_add(1);
          try {
            barrier.arrive_and_wait();  // party 3 never arrives
          } catch (const ps::BrokenBarrierError&) {
            broken_count.fetch_add(1);
          }
        });
      }
      while (arriving.load() < 2) std::this_thread::yield();
      barrier.break_barrier();
    }
    ASSERT_EQ(broken_count.load(), 2) << "round " << round;
  }
}

TEST(CyclicBarrier, BreakBeforeAnyArrivalFailsFast) {
  ps::CyclicBarrier barrier(2);
  EXPECT_FALSE(barrier.broken());
  barrier.break_barrier();
  EXPECT_THROW(barrier.arrive_and_wait(), ps::BrokenBarrierError);
}

TEST(CyclicBarrier, CompletedPhasesUnaffectedByLaterBreak) {
  ps::CyclicBarrier barrier(2);
  std::size_t phase_a = 99, phase_b = 99;
  {
    std::jthread a([&] { phase_a = barrier.arrive_and_wait(); });
    std::jthread b([&] { phase_b = barrier.arrive_and_wait(); });
  }
  barrier.break_barrier();
  EXPECT_EQ(phase_a, 0u);  // the completed phase already returned normally
  EXPECT_EQ(phase_b, 0u);
}

TEST(SenseBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 200;
  ps::SenseBarrier barrier(kThreads);
  std::atomic<long> counter{0};
  std::atomic<int> violations{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int ph = 0; ph < kPhases; ++ph) {
          counter.fetch_add(1);
          barrier.arrive_and_wait();
          if (counter.load() < static_cast<long>(kThreads) * (ph + 1))
            violations.fetch_add(1);
          barrier.arrive_and_wait();
        }
      });
    }
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(counter.load(), static_cast<long>(kThreads) * kPhases);
}

// ------------------------------------------------------------- deadlock ---

TEST(WaitForGraph, NoCycleInDag) {
  ps::WaitForGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  EXPECT_FALSE(g.has_cycle());
  EXPECT_TRUE(g.find_cycle().empty());
}

TEST(WaitForGraph, DetectsSimpleCycle) {
  ps::WaitForGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  EXPECT_TRUE(g.has_cycle());
  const auto cycle = g.find_cycle();
  ASSERT_GE(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), cycle.back());
}

TEST(WaitForGraph, DetectsLongCycleAndRemoveEdgeClearsIt) {
  ps::WaitForGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 1);
  EXPECT_TRUE(g.has_cycle());
  g.remove_edge(3, 4);
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(WaitForGraph, SelfLoopIsCycle) {
  ps::WaitForGraph g;
  g.add_edge(7, 7);
  EXPECT_TRUE(g.has_cycle());
}

TEST(ResourceAllocation, ClassicTwoLockDeadlock) {
  // T1 holds A wants B; T2 holds B wants A.
  ps::ResourceAllocationState s;
  s.acquire(1, 100);  // T1 holds A
  s.acquire(2, 200);  // T2 holds B
  s.request(1, 200);
  s.request(2, 100);
  const auto dead = s.deadlocked_threads();
  EXPECT_EQ(dead, (std::vector<int>{1, 2}));
}

TEST(ResourceAllocation, NoDeadlockWithoutCycle) {
  ps::ResourceAllocationState s;
  s.acquire(1, 100);
  s.request(2, 100);  // T2 waits on T1, but T1 wants nothing
  EXPECT_TRUE(s.deadlocked_threads().empty());
  // T1 releases; T2 acquires; all clear.
  s.release(1, 100);
  s.acquire(2, 100);
  EXPECT_TRUE(s.deadlocked_threads().empty());
}

TEST(ResourceAllocation, ThreeWayCycle) {
  ps::ResourceAllocationState s;
  s.acquire(1, 10);
  s.acquire(2, 20);
  s.acquire(3, 30);
  s.request(1, 20);
  s.request(2, 30);
  s.request(3, 10);
  EXPECT_EQ(s.deadlocked_threads(), (std::vector<int>{1, 2, 3}));
}

TEST(LockOrder, ConsistentOrderIsClean) {
  ps::LockOrderRegistry reg;
  for (int t = 0; t < 3; ++t) {
    reg.on_acquire(t, "A");
    reg.on_acquire(t, "B");
    reg.on_release(t, "B");
    reg.on_release(t, "A");
  }
  EXPECT_TRUE(reg.clean());
}

TEST(LockOrder, InvertedOrderIsViolation) {
  ps::LockOrderRegistry reg;
  reg.on_acquire(1, "A");
  reg.on_acquire(1, "B");  // records A->B
  reg.on_release(1, "B");
  reg.on_release(1, "A");
  reg.on_acquire(2, "B");
  reg.on_acquire(2, "A");  // records B->A: cycle!
  EXPECT_FALSE(reg.clean());
  ASSERT_EQ(reg.violations().size(), 1u);
  EXPECT_NE(reg.violations()[0].find("->"), std::string::npos);
}

TEST(LockOrder, TransitiveCycleDetected) {
  ps::LockOrderRegistry reg;
  reg.on_acquire(1, "A");
  reg.on_acquire(1, "B");  // A->B
  reg.on_release(1, "B");
  reg.on_release(1, "A");
  reg.on_acquire(2, "B");
  reg.on_acquire(2, "C");  // B->C
  reg.on_release(2, "C");
  reg.on_release(2, "B");
  reg.on_acquire(3, "C");
  reg.on_acquire(3, "A");  // C->A closes A->B->C->A
  EXPECT_FALSE(reg.clean());
}

TEST(DisseminationBarrier, RejectsZeroPartiesAndBadIndex) {
  EXPECT_THROW(ps::DisseminationBarrier(0), std::invalid_argument);
  ps::DisseminationBarrier b(2);
  EXPECT_THROW(b.arrive_and_wait(2), std::out_of_range);
  EXPECT_EQ(b.rounds(), 1u);
  EXPECT_EQ(ps::DisseminationBarrier(8).rounds(), 3u);
  EXPECT_EQ(ps::DisseminationBarrier(1).rounds(), 0u);
}

TEST(DisseminationBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 300;
  ps::DisseminationBarrier barrier(kThreads);
  std::atomic<long> counter{0};
  std::atomic<int> violations{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int ph = 0; ph < kPhases; ++ph) {
          counter.fetch_add(1);
          barrier.arrive_and_wait(static_cast<std::size_t>(t));
          if (counter.load() < static_cast<long>(kThreads) * (ph + 1))
            violations.fetch_add(1);
          barrier.arrive_and_wait(static_cast<std::size_t>(t));
        }
      });
    }
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(counter.load(), static_cast<long>(kThreads) * kPhases);
}

TEST(DisseminationBarrier, SinglePartyIsNoop) {
  ps::DisseminationBarrier b(1);
  b.arrive_and_wait(0);
  b.arrive_and_wait(0);
  SUCCEED();
}
