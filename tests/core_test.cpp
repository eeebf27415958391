// Tests for pdc::core — the worker pool, SPMD team, parallel_for
// schedules, reduce/scan, and fork-join helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <new>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pdc/core/parallel_for.hpp"
#include "pdc/core/reduce_scan.hpp"
#include "pdc/core/task_group.hpp"
#include "pdc/core/team.hpp"
#include "pdc/core/team_pool.hpp"
#include "pdc/core/work_steal.hpp"
#include "pdc/core/zeroed_buffer.hpp"
#include "pdc/obs/obs.hpp"

namespace pc = pdc::core;

// ----------------------------------------------------------------- team ---

TEST(Team, RunsEveryRankExactlyOnce) {
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h = 0;
  pc::Team::run(4, [&](pc::TeamContext& ctx) {
    EXPECT_EQ(ctx.size(), 4);
    hits[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, SingleThreadRunsInline) {
  pc::Team::run(1, [](pc::TeamContext& ctx) {
    EXPECT_EQ(ctx.rank(), 0);
    EXPECT_EQ(ctx.size(), 1);
    ctx.barrier();  // must not hang with one party
  });
}

TEST(Team, RejectsBadSize) {
  EXPECT_THROW(pc::Team::run(0, [](pc::TeamContext&) {}),
               std::invalid_argument);
}

TEST(Team, BarrierSeparatesPhases) {
  constexpr int kThreads = 3;
  std::atomic<int> phase1{0};
  std::atomic<int> violations{0};
  pc::Team::run(kThreads, [&](pc::TeamContext& ctx) {
    phase1.fetch_add(1);
    ctx.barrier();
    if (phase1.load() != kThreads) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(Team, PropagatesMemberException) {
  EXPECT_THROW(pc::Team::run(2,
                             [](pc::TeamContext& ctx) {
                               if (ctx.rank() == 1)
                                 throw std::runtime_error("rank1 failed");
                             }),
               std::runtime_error);
}

TEST(Team, ThrowBeforeBarrierReleasesWaitingTeammates) {
  // Regression: rank 1 throws before the barrier the other ranks are
  // blocked in; the thrower never arrives, and the team used to hang
  // forever. The broken-barrier protocol must unwind everyone and
  // rethrow the original exception.
  for (bool reuse_pool : {true, false}) {
    std::atomic<int> unwound{0};
    try {
      pc::Team::run(4, pc::TeamOptions{.reuse_pool = reuse_pool},
                    [&](pc::TeamContext& ctx) {
                      if (ctx.rank() == 1)
                        throw std::runtime_error("rank1 died pre-barrier");
                      ctx.barrier();  // would deadlock without the fix
                      unwound.fetch_add(1);  // must never run
                    });
      FAIL() << "expected rethrow (reuse_pool=" << reuse_pool << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank1 died pre-barrier");
    }
    EXPECT_EQ(unwound.load(), 0);
  }
}

TEST(Team, ThrowAcrossMultiplePhasesStillUnwinds) {
  // Failure in a late phase: earlier barriers complete normally, then the
  // broken-barrier release has to reach ranks already waiting in phase 2.
  for (bool reuse_pool : {true, false}) {
    std::atomic<int> phase1{0};
    try {
      pc::Team::run(3, pc::TeamOptions{.reuse_pool = reuse_pool},
                    [&](pc::TeamContext& ctx) {
                      phase1.fetch_add(1);
                      ctx.barrier();
                      if (ctx.rank() == 2)
                        throw std::logic_error("phase-2 failure");
                      ctx.barrier();
                    });
      FAIL() << "expected rethrow (reuse_pool=" << reuse_pool << ")";
    } catch (const std::logic_error&) {
    }
    EXPECT_EQ(phase1.load(), 3);  // phase 1 ran to completion everywhere
  }
}

TEST(Team, LowestFailingRankWins) {
  for (bool reuse_pool : {true, false}) {
    try {
      pc::Team::run(4, pc::TeamOptions{.reuse_pool = reuse_pool},
                    [](pc::TeamContext& ctx) {
                      // Every rank throws; rank 0's exception must win.
                      throw std::runtime_error(
                          "rank" + std::to_string(ctx.rank()));
                    });
      FAIL() << "expected rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank0");
    }
  }
}

// ------------------------------------------------ pooled vs forked team ---

TEST(TeamPool, PooledAndForkedRegionsAreEquivalent) {
  // Same ranks, same block_range partition, barrier reusable across
  // phases — on both execution paths.
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 1013;
  for (bool reuse_pool : {true, false}) {
    std::vector<int> rank_seen(kThreads, 0);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(kThreads);
    std::atomic<int> phase_a{0};
    std::atomic<int> violations{0};
    pc::Team::run(kThreads, pc::TeamOptions{.reuse_pool = reuse_pool},
                  [&](pc::TeamContext& ctx) {
                    const auto r = static_cast<std::size_t>(ctx.rank());
                    EXPECT_EQ(ctx.size(), kThreads);
                    rank_seen[r] += 1;
                    ranges[r] = ctx.block_range(0, kN);
                    phase_a.fetch_add(1);
                    ctx.barrier();  // phase 1
                    if (phase_a.load() != kThreads) violations.fetch_add(1);
                    ctx.barrier();  // phase 2: same barrier, reused
                    if (phase_a.load() != kThreads) violations.fetch_add(1);
                  });
    EXPECT_EQ(violations.load(), 0) << "reuse_pool=" << reuse_pool;
    std::size_t expected_lo = 0;
    for (int r = 0; r < kThreads; ++r) {
      EXPECT_EQ(rank_seen[static_cast<std::size_t>(r)], 1);
      const auto [lo, hi] = ranges[static_cast<std::size_t>(r)];
      EXPECT_EQ(lo, expected_lo) << "reuse_pool=" << reuse_pool;
      expected_lo = hi;
    }
    EXPECT_EQ(expected_lo, kN);
  }
}

TEST(TeamPool, BackToBackRegionsReuseWorkers) {
  // After the first region, the pool must not grow: every subsequent
  // region reuses the parked workers.
  pc::Team::run(4, [](pc::TeamContext&) {});
  const std::size_t after_first = pc::TeamPool::instance().workers_started();
  EXPECT_GE(after_first, 3u);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> hits{0};
    pc::Team::run(4, [&](pc::TeamContext& ctx) {
      ctx.barrier();
      hits.fetch_add(1 + ctx.rank());
    });
    ASSERT_EQ(hits.load(), 10);
  }
  EXPECT_EQ(pc::TeamPool::instance().workers_started(), after_first);
}

TEST(TeamPool, NestedAndConcurrentRegionsRunPooled) {
  // A region launched from inside a region, or from several threads at
  // once, takes idle workers like any other: nothing forks, and nothing
  // deadlocks.
  pdc::obs::Counter& forked = pdc::obs::counter("core.regions.forked");
  const std::uint64_t forked_before = forked.value();
  std::atomic<int> inner_total{0};
  pc::Team::run(2, [&](pc::TeamContext&) {
    pc::Team::run(2, [&](pc::TeamContext& inner) {
      inner.barrier();
      inner_total.fetch_add(1 + inner.rank());
    });
  });
  EXPECT_EQ(inner_total.load(), 6);  // two inner teams of ranks {0,1}
  EXPECT_EQ(forked.value(), forked_before);

  // Concurrent top-level regions from independent threads.
  std::atomic<long> sum{0};
  {
    std::vector<std::jthread> drivers;
    for (int d = 0; d < 3; ++d) {
      drivers.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          pc::Team::run(3, [&](pc::TeamContext& ctx) {
            ctx.barrier();
            sum.fetch_add(ctx.rank());
          });
        }
      });
    }
  }
  EXPECT_EQ(sum.load(), 3L * 20L * 3L);  // 3 drivers x 20 regions x (0+1+2)
  EXPECT_EQ(forked.value(), forked_before);
}

TEST(TeamPool, InstanceIsSingleton) {
  EXPECT_EQ(&pc::TeamPool::instance(), &pc::TeamPool::instance());
  pc::Team::run(2, [](pc::TeamContext&) {});
  EXPECT_GE(pc::TeamPool::instance().workers_started(), 1u);
}

TEST(TeamPool, RunsOfferedJobs) {
  pc::TeamPool& pool = pc::TeamPool::instance();
  int answer = 0;
  pc::TeamPool::Job job([&] { answer = 6 * 7; });
  pool.offer(job);
  pool.join(job);  // the job's writes are visible once join() returns
  EXPECT_EQ(answer, 42);
  EXPECT_EQ(job.error(), nullptr);
}

TEST(TeamPool, PropagatesExceptionThroughJob) {
  pc::TeamPool& pool = pc::TeamPool::instance();
  pc::TeamPool::Job job([] { throw std::runtime_error("boom"); });
  pool.offer(job);
  pool.join(job);
  ASSERT_NE(job.error(), nullptr);
  EXPECT_THROW(std::rethrow_exception(job.error()), std::runtime_error);
}

TEST(Team, BlockRangePartitionIsExactCover) {
  // Property: block ranges across ranks tile [begin, end) exactly, in
  // near-equal parts (sizes differ by at most one, larger parts first),
  // and a team rank's block is the free core::block_range's part. The
  // range ending at SIZE_MAX checks that no step of the split overflows.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (int p = 1; p <= 7; ++p) {
    const auto parts = static_cast<std::size_t>(p);
    for (std::size_t n : {0u, 1u, 5u, 64u, 100u, 101u}) {
      for (const std::size_t begin : {std::size_t{10}, kMax - n}) {
        const std::size_t end = begin + n;
        std::vector<std::pair<std::size_t, std::size_t>> ranges(parts);
        pc::Team::run(p, [&](pc::TeamContext& ctx) {
          ranges[static_cast<std::size_t>(ctx.rank())] =
              ctx.block_range(begin, end);
        });
        const auto size_of = [&](std::size_t r) {
          return ranges[r].second - ranges[r].first;
        };
        std::size_t expected_lo = begin;
        std::size_t total = 0;
        for (std::size_t r = 0; r < parts; ++r) {
          const auto [lo, hi] = ranges[r];
          SCOPED_TRACE(testing::Message() << "p=" << p << " n=" << n
                                          << " begin=" << begin << " r=" << r);
          EXPECT_EQ(ranges[r], pc::block_range(begin, end, r, parts));
          EXPECT_EQ(lo, expected_lo);
          EXPECT_GE(hi, lo);
          // Near-equal, larger parts first: no part outgrows the one
          // before it, and none falls more than one short of the first.
          const std::size_t size = hi - lo;
          EXPECT_LE(size_of(0) - size, 1u);
          if (r > 0) {
            EXPECT_LE(size, size_of(r - 1));
          }
          total += size;
          expected_lo = hi;
        }
        EXPECT_EQ(total, n);
        EXPECT_EQ(expected_lo, end);
      }
    }
  }
}

// ----------------------------------------------------------- parallel_for ---

class ParallelForSweep
    : public ::testing::TestWithParam<std::tuple<pc::Schedule, int>> {};

TEST_P(ParallelForSweep, TouchesEveryIndexExactlyOnce) {
  const auto [sched, threads] = GetParam();
  constexpr std::size_t kN = 10007;  // prime: exercises uneven splits
  std::vector<std::atomic<int>> touched(kN);
  for (auto& t : touched) t = 0;
  pc::ForOptions opt;
  opt.threads = threads;
  opt.schedule = sched;
  opt.chunk = 13;
  pc::parallel_for(0, kN, opt,
                   [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesAndThreads, ParallelForSweep,
    ::testing::Combine(::testing::Values(pc::Schedule::kStatic,
                                         pc::Schedule::kDynamic,
                                         pc::Schedule::kGuided,
                                         pc::Schedule::kStealing),
                       ::testing::Values(1, 2, 3, 4, 8)));

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  pc::parallel_for(5, 5, 4, [&](std::size_t) { ++calls; });
  pc::parallel_for(9, 5, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RejectsBadOptions) {
  pc::ForOptions opt;
  opt.threads = 0;
  EXPECT_THROW(pc::parallel_for(0, 10, opt, [](std::size_t) {}),
               std::invalid_argument);
  opt.threads = 2;
  opt.chunk = 0;
  EXPECT_THROW(pc::parallel_for(0, 10, opt, [](std::size_t) {}),
               std::invalid_argument);
}

TEST(ParallelFor, ThrowingBodyReachesCaller) {
  // Acceptance: a throwing loop body must neither terminate the process
  // (pool-worker escape) nor hang it (teammates stuck at a barrier) — on
  // every schedule and both execution paths.
  for (auto sched : {pc::Schedule::kStatic, pc::Schedule::kDynamic,
                     pc::Schedule::kGuided, pc::Schedule::kStealing}) {
    for (bool reuse_pool : {true, false}) {
      pc::ForOptions opt;
      opt.threads = 4;
      opt.schedule = sched;
      opt.chunk = 8;
      opt.reuse_pool = reuse_pool;
      EXPECT_THROW(pc::parallel_for(0, 1000, opt,
                                    [](std::size_t i) {
                                      if (i == 537)
                                        throw std::runtime_error("body boom");
                                    }),
                   std::runtime_error);
    }
  }
}

TEST(ParallelFor, NonZeroBeginHandled) {
  std::atomic<long> sum{0};
  pc::ForOptions opt;
  opt.threads = 3;
  opt.schedule = pc::Schedule::kDynamic;
  opt.chunk = 7;
  pc::parallel_for(100, 200, opt,
                   [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  long expect = 0;
  for (long i = 100; i < 200; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ParallelFor, DynamicExtremeRangeDoesNotWrap) {
  // Regression: the old kDynamic claim loop fetch_add'ed the shared
  // counter past `end` (one overshoot per thread), so a range ending
  // near SIZE_MAX wrapped the counter back into the loop and re-executed
  // indices. The CAS-clamped loop never advances the counter past `end`.
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kBegin = SIZE_MAX - kN;  // end == SIZE_MAX
  std::vector<std::atomic<int>> touched(kN);
  for (auto& t : touched) t = 0;
  pc::ForOptions opt;
  opt.threads = 4;
  opt.schedule = pc::Schedule::kDynamic;
  opt.chunk = 64;  // does not divide kN: the last chunk must clamp
  pc::parallel_for(kBegin, SIZE_MAX, opt,
                   [&](std::size_t i) { touched[i - kBegin].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
}

// ------------------------------------------------- scheduling equivalence ---

// All four schedules are *only* execution orders: on the same seeded
// skew workload they must produce bit-identical output to the sequential
// loop. (Stencil bit-identity under tile stealing is asserted in
// stencil_test.)
TEST(SchedulingEquivalence, AllSchedulesMatchSequential) {
  constexpr std::size_t kN = 4096;
  std::mt19937_64 rng(20260809);
  std::vector<std::uint64_t> input(kN);
  for (auto& x : input) x = rng();

  // Deterministic per-index work whose cost is triangular in i (the
  // skewed shape the ablation bench prices): index i hashes i times.
  const auto work = [&](std::size_t i) {
    std::uint64_t h = input[i];
    for (std::size_t k = 0; k <= i % 97; ++k)
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    return h;
  };

  std::vector<std::uint64_t> expect(kN);
  for (std::size_t i = 0; i < kN; ++i) expect[i] = work(i);

  for (auto sched : {pc::Schedule::kStatic, pc::Schedule::kDynamic,
                     pc::Schedule::kGuided, pc::Schedule::kStealing}) {
    for (int threads : {2, 3, 8}) {
      std::vector<std::uint64_t> out(kN, 0);
      pc::ForOptions opt;
      opt.threads = threads;
      opt.schedule = sched;
      opt.chunk = 16;
      pc::parallel_for(0, kN, opt, [&](std::size_t i) { out[i] = work(i); });
      ASSERT_EQ(out, expect) << "schedule " << static_cast<int>(sched)
                             << " threads " << threads;
    }
  }
}

// ---------------------------------------------------- work-stealing deque ---

TEST(WorkStealingDeque, OwnerPopIsLifo) {
  pc::WorkStealingDeque<int> d;
  for (int i = 0; i < 10; ++i) d.push(i);
  EXPECT_EQ(d.size(), 10u);
  for (int i = 9; i >= 0; --i) {
    auto v = d.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(d.pop().has_value());
  EXPECT_TRUE(d.empty());
}

TEST(WorkStealingDeque, StealIsFifo) {
  pc::WorkStealingDeque<int> d;
  for (int i = 0; i < 10; ++i) d.push(i);
  for (int i = 0; i < 10; ++i) {
    auto v = d.steal();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // oldest first
  }
  EXPECT_FALSE(d.steal().has_value());
}

TEST(WorkStealingDeque, GrowsPastInitialCapacity) {
  pc::WorkStealingDeque<std::size_t> d(8);
  constexpr std::size_t kN = 10000;  // forces many doublings
  for (std::size_t i = 0; i < kN; ++i) d.push(i);
  EXPECT_EQ(d.size(), kN);
  // Mixed drain: steal the old half, pop the young half.
  for (std::size_t i = 0; i < kN / 2; ++i) {
    auto v = d.steal();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  for (std::size_t i = kN; i-- > kN / 2;) {
    auto v = d.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(d.empty());
}

TEST(WorkStealingDeque, MultiWordItemsSurviveRoundTrip) {
  struct Fat {
    std::uint64_t a, b, c;
  };
  pc::WorkStealingDeque<Fat> d;
  for (std::uint64_t i = 0; i < 100; ++i) d.push({i, ~i, i * i});
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto v = d.steal();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->a, i);
    EXPECT_EQ(v->b, ~i);
    EXPECT_EQ(v->c, i * i);
  }
}

// TSan target: one owner pushing and popping against N concurrent
// thieves; every pushed item must be returned by exactly one pop() or
// steal(), none lost, none duplicated.
TEST(WorkStealingDeque, StressExactlyOnceUnderConcurrentSteals) {
  constexpr int kThieves = 3;
  constexpr std::size_t kItems = 50000;
  pc::WorkStealingDeque<std::size_t> d(16);  // small: exercises growth
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) s = 0;
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = d.steal()) seen[*v].fetch_add(1);
      }
      while (auto v = d.steal()) seen[*v].fetch_add(1);
    });
  }

  // Owner: push in bursts, pop between bursts (mixes the last-element
  // CAS race into the schedule).
  std::size_t next = 0;
  while (next < kItems) {
    const std::size_t burst = std::min<std::size_t>(64, kItems - next);
    for (std::size_t i = 0; i < burst; ++i) d.push(next++);
    for (int i = 0; i < 16; ++i) {
      if (auto v = d.pop())
        seen[*v].fetch_add(1);
      else
        break;
    }
  }
  while (auto v = d.pop()) seen[*v].fetch_add(1);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (std::size_t i = 0; i < kItems; ++i)
    ASSERT_EQ(seen[i].load(), 1) << "item " << i;
}

// ------------------------------------------------------------ reduce/scan ---

TEST(Reduce, SumMatchesSequential) {
  std::vector<long> xs(100000);
  std::iota(xs.begin(), xs.end(), 1);
  const long expect = std::accumulate(xs.begin(), xs.end(), 0L);
  for (int p : {1, 2, 4, 8}) {
    EXPECT_EQ(pc::parallel_reduce<long>(xs, 0L, p), expect) << "p=" << p;
  }
}

TEST(Reduce, MaxWithCustomOp) {
  std::mt19937 rng(5);
  std::vector<int> xs(50000);
  for (auto& x : xs) x = static_cast<int>(rng() % 1000000);
  const int expect = *std::max_element(xs.begin(), xs.end());
  const int got = pc::parallel_reduce<int>(
      xs, std::numeric_limits<int>::min(), 4,
      [](int a, int b) { return std::max(a, b); });
  EXPECT_EQ(got, expect);
}

TEST(Reduce, EmptyReturnsIdentity) {
  std::vector<int> empty;
  EXPECT_EQ(pc::parallel_reduce<int>(empty, 42, 4), 42);
}

TEST(Reduce, TransformReduceDotProduct) {
  struct Pair {
    double a, b;
  };
  std::vector<Pair> xs(10000);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = {static_cast<double>(i % 10), static_cast<double>((i + 1) % 7)};
  double expect = 0;
  for (const auto& p : xs) expect += p.a * p.b;
  const double got = pc::parallel_transform_reduce<Pair, double>(
      xs, 0.0, 4, [](const Pair& p) { return p.a * p.b; });
  EXPECT_DOUBLE_EQ(got, expect);
}

class ScanSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScanSweep, InclusiveMatchesSequential) {
  const auto [threads, size_exp] = GetParam();
  const std::size_t n = std::size_t{1} << size_exp;
  std::mt19937 rng(99);
  std::vector<long> in(n);
  for (auto& x : in) x = static_cast<long>(rng() % 100) - 50;

  std::vector<long> expect(n);
  long acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += in[i];
    expect[i] = acc;
  }

  std::vector<long> out(n);
  pc::parallel_inclusive_scan<long>(in, out, 0L, threads);
  EXPECT_EQ(out, expect);
}

TEST_P(ScanSweep, ExclusiveMatchesSequential) {
  const auto [threads, size_exp] = GetParam();
  const std::size_t n = std::size_t{1} << size_exp;
  std::mt19937 rng(7);
  std::vector<long> in(n);
  for (auto& x : in) x = static_cast<long>(rng() % 100);

  std::vector<long> expect(n);
  long acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = acc;
    acc += in[i];
  }

  std::vector<long> out(n);
  pc::parallel_exclusive_scan<long>(in, out, 0L, threads);
  EXPECT_EQ(out, expect);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndSizes, ScanSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 4, 10, 16)));

TEST(Scan, InclusiveInPlaceAllowed) {
  std::vector<long> data = {1, 2, 3, 4, 5, 6, 7, 8};
  pc::parallel_inclusive_scan<long>(data, data, 0L, 2);
  EXPECT_EQ(data, (std::vector<long>{1, 3, 6, 10, 15, 21, 28, 36}));
}

TEST(Scan, ExclusiveInPlaceRejected) {
  std::vector<long> data = {1, 2, 3};
  EXPECT_THROW(pc::parallel_exclusive_scan<long>(data, data, 0L, 2),
               std::invalid_argument);
}

TEST(Scan, SizeMismatchThrows) {
  std::vector<long> in = {1, 2, 3};
  std::vector<long> out(2);
  EXPECT_THROW(pc::parallel_inclusive_scan<long>(in, out, 0L, 2),
               std::invalid_argument);
}

TEST(Scan, RejectsNonPositiveThreadCounts) {
  // Every reduce and scan entry point checks its team size first, before
  // any sequential fallback could run.
  const std::vector<long> in = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<long> out(in.size());
  for (int threads : {0, -1}) {
    SCOPED_TRACE(threads);
    EXPECT_THROW((void)pc::parallel_reduce<long>(in, 0L, threads),
                 std::invalid_argument);
    EXPECT_THROW((void)(pc::parallel_transform_reduce<long, long>(
                     in, 0L, threads, [](long x) { return x * x; })),
                 std::invalid_argument);
    EXPECT_THROW(pc::parallel_inclusive_scan<long>(in, out, 0L, threads),
                 std::invalid_argument);
    EXPECT_THROW(pc::parallel_exclusive_scan<long>(in, out, 0L, threads),
                 std::invalid_argument);
  }
}

TEST(Scan, NonCommutativeOpStillCorrect) {
  // String concatenation is associative but not commutative: a scan that
  // reorders operands would corrupt the result.
  std::vector<std::string> in;
  for (int i = 0; i < 100; ++i) in.push_back(std::string(1, static_cast<char>('a' + i % 26)));
  std::vector<std::string> out(in.size());
  pc::parallel_inclusive_scan<std::string>(in, out, std::string{}, 4);
  std::string acc;
  for (std::size_t i = 0; i < in.size(); ++i) {
    acc += in[i];
    EXPECT_EQ(out[i], acc);
  }
}

// ------------------------------------------------------------ task group ---

TEST(TaskGroup, WaitsForAllSpawnedTasks) {
  pc::TaskGroup group;
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) group.spawn([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(TaskGroup, ManyTasksAllComplete) {
  pc::TaskGroup group;
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) group.spawn([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 500);
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsImmediately) {
  pc::TaskGroup group;
  group.wait();  // must not hang
  group.wait();
  SUCCEED();
}

TEST(TaskGroup, RethrowsFirstError) {
  pc::TaskGroup group;
  group.spawn([] { throw std::runtime_error("task failed"); });
  group.spawn([] {});
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(TaskGroup, FirstOfManyErrorsWins) {
  // The earliest-spawned task's error wins, whichever task ends first.
  pc::TaskGroup group;
  group.spawn([] { throw std::runtime_error("first"); });
  group.spawn([] { throw std::logic_error("second"); });
  try {
    group.wait();
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(TaskGroup, SpawnedTaskThrowRethrownFromWait) {
  // wait() consumes the error it rethrows: the group stays usable, and
  // the next wait() does not rethrow it again.
  pc::TaskGroup group;
  group.spawn([] { throw std::runtime_error("spawned boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  std::atomic<int> done{0};
  group.spawn([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(TaskGroup, ReusableAfterWait) {
  pc::TaskGroup group;
  std::atomic<int> done{0};
  group.spawn([&] { done.fetch_add(1); });
  group.wait();
  group.spawn([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 2);
}

TEST(TaskGroup, ConcurrentSpawnersStress) {
  pc::TaskGroup group;
  std::atomic<long> sum{0};
  {
    std::vector<std::jthread> spawners;
    for (int s = 0; s < 4; ++s) {
      spawners.emplace_back([&] {
        for (int i = 0; i < 500; ++i) group.spawn([&] { sum.fetch_add(1); });
      });
    }
  }
  group.wait();
  EXPECT_EQ(sum.load(), 2000);
}

TEST(TaskGroup, TaskSpawnsIntoItsOwnGroup) {
  // wait() must also cover tasks spawned while it is already waiting.
  pc::TaskGroup group;
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    group.spawn([&] {
      group.spawn([&] { done.fetch_add(1); });
      done.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), 16);
}

TEST(TaskGroup, WaitInsideARegionHoldingEveryWorkerCompletes) {
  // The region takes every worker the pool has, and at least
  // hardware_concurrency() of them, and holds them all until its last
  // barrier. No worker is free and no offer may start one, so each
  // member's wait() must run its own tasks (help-first) or deadlock.
  pc::TeamPool& pool = pc::TeamPool::instance();
  const std::size_t hc = std::max(1u, std::thread::hardware_concurrency());
  const int team = static_cast<int>(std::max(pool.workers_started(), hc)) + 1;
  std::atomic<int> done{0};
  pc::Team::run(team, [&](pc::TeamContext& ctx) {
    ctx.barrier();
    pc::TaskGroup group;
    for (int i = 0; i < 4; ++i) group.spawn([&] { done.fetch_add(1); });
    group.wait();
    ctx.barrier();
  });
  EXPECT_EQ(done.load(), 4 * team);
}

// ------------------------------------------------------------- fork-join ---

TEST(ForkJoin, RunsBothBranches) {
  std::atomic<int> a{0}, b{0};
  pc::invoke_parallel([&] { a = 1; }, [&] { b = 2; }, 1);
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(ForkJoin, DepthZeroRunsInline) {
  const auto main_id = std::this_thread::get_id();
  std::thread::id f_id, g_id;
  pc::invoke_parallel([&] { f_id = std::this_thread::get_id(); },
                      [&] { g_id = std::this_thread::get_id(); }, 0);
  EXPECT_EQ(f_id, main_id);
  EXPECT_EQ(g_id, main_id);
}

TEST(ForkJoin, PropagatesForkedException) {
  EXPECT_THROW(
      pc::invoke_parallel([] { throw std::logic_error("left"); }, [] {}, 2),
      std::logic_error);
}

TEST(ForkJoin, DepthForThreads) {
  EXPECT_EQ(pc::fork_depth_for_threads(1), 0);
  EXPECT_EQ(pc::fork_depth_for_threads(2), 1);
  EXPECT_EQ(pc::fork_depth_for_threads(3), 2);
  EXPECT_EQ(pc::fork_depth_for_threads(4), 2);
  EXPECT_EQ(pc::fork_depth_for_threads(8), 3);
  // The doubling loop this replaced overflowed past 2^30 and never ended.
  EXPECT_EQ(pc::fork_depth_for_threads((1 << 30) + 1), 31);
  EXPECT_EQ(pc::fork_depth_for_threads(std::numeric_limits<int>::max()), 31);
}

namespace {

// 2^depth leaves, one offer per inner node; each leaf holds its thread
// briefly so that offers really queue up behind busy workers.
void offer_tree(int depth, std::atomic<int>& leaves) {
  if (depth == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    leaves.fetch_add(1);
    return;
  }
  pc::invoke_parallel([&] { offer_tree(depth - 1, leaves); },
                      [&] { offer_tree(depth - 1, leaves); }, 1);
}

}  // namespace

TEST(ForkJoin, OffersNeverGrowThePoolPastHardwareConcurrency) {
  // 127 offers: a broken bound would start up to ~127 threads, not more.
  pc::TeamPool& pool = pc::TeamPool::instance();
  const std::size_t before = pool.workers_started();
  const std::size_t hc = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<int> leaves{0};
  offer_tree(7, leaves);
  EXPECT_EQ(leaves.load(), 128);
  EXPECT_LE(pool.workers_started(), std::max(before, hc));
}

// --------------------------------------------------------------- pipeline ---

#include "pdc/core/pipeline.hpp"

TEST(Pipeline, SingleStageIdentityOrder) {
  pc::Pipeline<int> pipe({[](int x) { return x; }}, 2);
  std::vector<int> in = {5, 3, 8, 1};
  EXPECT_EQ(pipe.run(in), in);
}

TEST(Pipeline, StagesApplyInOrder) {
  pc::Pipeline<int> pipe(
      {[](int x) { return x + 1; }, [](int x) { return x * 10; }});
  EXPECT_EQ(pipe.run({0, 1, 2}), (std::vector<int>{10, 20, 30}));
}

TEST(Pipeline, TinyBufferStillCompletes) {
  // Capacity 1 forces full backpressure through every stage.
  pc::Pipeline<int> pipe(
      {[](int x) { return x + 1; }, [](int x) { return x + 1; },
       [](int x) { return x + 1; }},
      1);
  std::vector<int> in(200);
  std::iota(in.begin(), in.end(), 0);
  const auto out = pipe.run(in);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) + 3);
}

TEST(Pipeline, EmptyInputAndReuse) {
  pc::Pipeline<int> pipe({[](int x) { return x; }});
  EXPECT_TRUE(pipe.run({}).empty());
  EXPECT_EQ(pipe.run({42}), (std::vector<int>{42}));  // reusable
}

// A stage that throws on the item 3, for the failure tests below.
int throw_on_three(int x) {
  if (x == 3) throw std::runtime_error("stage failed on item 3");
  return x;
}

TEST(Pipeline, ThrowingStageRethrowsFromRunAndStaysReusable) {
  pc::Pipeline<int> pipe({throw_on_three}, 2);
  std::vector<int> in(100);
  std::iota(in.begin(), in.end(), 0);
  EXPECT_THROW((void)pipe.run(in), std::runtime_error);
  EXPECT_EQ(pipe.run({5, 6, 7}), (std::vector<int>{5, 6, 7}));
}

TEST(Pipeline, ThrowingMiddleStageDrainsBothNeighbours) {
  // Capacity 1 keeps the first stage blocked on a full buffer and the last
  // one waiting on an empty one when the middle stage fails.
  pc::Pipeline<int> pipe(
      {[](int x) { return x; }, throw_on_three, [](int x) { return x * 2; }},
      1);
  std::vector<int> in(200);
  std::iota(in.begin(), in.end(), 0);
  try {
    (void)pipe.run(in);
    ADD_FAILURE() << "run() must rethrow the stage's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "stage failed on item 3");
  }
  EXPECT_EQ(pipe.run({4, 5}), (std::vector<int>{8, 10}));
}

// An item whose copy throws on the thread that sets `copy_throws`: the
// caller's, which feeds the pipeline, so only the feed fails.
thread_local bool copy_throws = false;
struct FeedBomb {
  int v = 0;
  explicit FeedBomb(int x) : v(x) {}
  FeedBomb(const FeedBomb& o) : v(o.v) {
    if (copy_throws && v == 3) throw std::runtime_error("feed failed on 3");
  }
  FeedBomb(FeedBomb&&) = default;
};

TEST(Pipeline, ThrowingFeedWindsDownAndRethrows) {
  // The feeder closes the source buffer however it leaves, so the stages
  // and the collector finish instead of waiting for more items.
  pc::Pipeline<FeedBomb> pipe({[](FeedBomb b) { return b; }}, 2);
  std::vector<FeedBomb> in;
  for (int i = 0; i < 10; ++i) in.emplace_back(i);
  copy_throws = true;
  EXPECT_THROW((void)pipe.run(in), std::runtime_error);
  copy_throws = false;
  EXPECT_EQ(pipe.run(in).size(), in.size());
}

TEST(Pipeline, RunsAsOnePooledRegion) {
  // A run is one Team region on the pool: once the first run has started
  // the workers it needs, later runs reuse them.
  pc::Pipeline<int> pipe(
      {[](int x) { return x + 1; }, [](int x) { return x * 2; }}, 2);
  pdc::obs::Counter& regions = pdc::obs::counter("core.regions");
  const std::uint64_t regions_before = regions.value();
  EXPECT_EQ(pipe.run({1, 2, 3}), (std::vector<int>{4, 6, 8}));
  EXPECT_EQ(regions.value(), regions_before + 1);
  const std::size_t workers = pc::TeamPool::instance().workers_started();
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t before = regions.value();
    ASSERT_EQ(pipe.run({round}), (std::vector<int>{2 * (round + 1)}));
    EXPECT_EQ(regions.value(), before + 1);
  }
  EXPECT_EQ(pc::TeamPool::instance().workers_started(), workers);
}

TEST(Pipeline, RejectsBadConfig) {
  EXPECT_THROW(pc::Pipeline<int>({}, 4), std::invalid_argument);
  EXPECT_THROW(pc::Pipeline<int>({[](int x) { return x; }}, 0),
               std::invalid_argument);
}

TEST(Team, ManySmallTeamsBackToBack) {
  // Regression guard for team setup/teardown races.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    pc::Team::run(3, [&](pc::TeamContext& ctx) {
      ctx.barrier();
      hits.fetch_add(1 + ctx.rank());
    });
    ASSERT_EQ(hits.load(), 6);
  }
}

// ---------------------------------------------------------- zeroed buffer ---

namespace {

constexpr std::size_t kCut = pc::kHugePageBytes;

/// Byte sizes on both sides of the huge-page cut.
constexpr std::size_t kCutSizes[] = {1, kCut - 1, kCut, kCut + 1};

/// A buffer of `n` bytes, each a function of its index and `seed`.
pc::ZeroedBuffer<std::uint8_t> patterned(std::size_t n, unsigned seed) {
  pc::ZeroedBuffer<std::uint8_t> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b.data()[i] = static_cast<std::uint8_t>(i * 131 + seed);
  return b;
}

}  // namespace

TEST(ZeroedBuffer, StartsZeroAndIsWritableAroundTheCut) {
  for (const std::size_t n : kCutSizes) {
    pc::ZeroedBuffer<std::uint8_t> b(n);
    ASSERT_EQ(b.size(), n);
    ASSERT_NE(b.data(), nullptr);
    EXPECT_TRUE(std::all_of(b.data(), b.data() + n,
                            [](std::uint8_t v) { return v == 0; }))
        << n << " bytes";
    // Mapped buffers start on a huge-page boundary.
    if (n >= kCut) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCut, 0u);
    }
    for (std::size_t i = 0; i < n; ++i)
      b.data()[i] = static_cast<std::uint8_t>(i + 1);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < n; ++i)
      wrong += b.data()[i] == static_cast<std::uint8_t>(i + 1) ? 0 : 1;
    EXPECT_EQ(wrong, 0u) << n << " bytes";
  }
  pc::ZeroedBuffer<std::uint64_t> one(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.data()[0], 0u);
  one.data()[0] = ~std::uint64_t{0};
  EXPECT_EQ(one.data()[0], ~std::uint64_t{0});
}

TEST(ZeroedBuffer, CopyMoveAndEqualityWithinAndAcrossTheCut) {
  for (const std::size_t a : kCutSizes) {
    for (const std::size_t b : kCutSizes) {
      SCOPED_TRACE(std::to_string(a) + " and " + std::to_string(b) +
                   " bytes");
      const auto x = patterned(a, 1);
      const auto y = patterned(b, 2);
      EXPECT_FALSE(x == y);

      pc::ZeroedBuffer<std::uint8_t> c(x);  // copy
      EXPECT_EQ(c, x);
      EXPECT_NE(c.data(), x.data());
      c = y;  // copy-assign, in place when the sizes match
      EXPECT_EQ(c, y);
      EXPECT_EQ(c.size(), b);

      pc::ZeroedBuffer<std::uint8_t> m(std::move(c));  // move
      EXPECT_EQ(m, y);
      EXPECT_EQ(c.size(), 0u);
      EXPECT_EQ(c.data(), nullptr);
      c = x;  // a moved-from buffer takes a copy
      EXPECT_EQ(c, x);
      c = std::move(m);  // move-assign
      EXPECT_EQ(c, y);

      auto& alias = c;
      c = std::as_const(alias);  // self copy-assignment
      EXPECT_EQ(c, y);
      c = std::move(alias);  // self move-assignment
      EXPECT_EQ(c, y);
    }
  }
}

TEST(ZeroedBuffer, EqualityComparesSizeAndEveryByte) {
  EXPECT_EQ(pc::ZeroedBuffer<std::uint8_t>(), pc::ZeroedBuffer<std::uint8_t>());
  EXPECT_EQ(pc::ZeroedBuffer<std::uint8_t>(0),
            pc::ZeroedBuffer<std::uint8_t>());
  EXPECT_FALSE(pc::ZeroedBuffer<std::uint8_t>(3) ==
               pc::ZeroedBuffer<std::uint8_t>(4));
  for (const std::size_t n : kCutSizes) {
    auto a = patterned(n, 7);
    const auto b = patterned(n, 7);
    EXPECT_EQ(a, b);
    a.data()[n - 1] ^= 1;
    EXPECT_FALSE(a == b) << n << " bytes";
  }
}

// Every size that cannot be mapped throws std::bad_alloc, before mapping:
// an element count whose bytes overflow, a byte count whose round-up to
// whole huge pages would wrap, and 2^48 bytes, more than the address space.
TEST(ZeroedBuffer, UnmappableSizesThrowBadAlloc) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  using Bytes = pc::ZeroedBuffer<std::uint8_t>;
  EXPECT_THROW((void)pc::ZeroedBuffer<std::uint64_t>(kMax / 4),
               std::bad_alloc);
  EXPECT_THROW((void)Bytes(kMax), std::bad_alloc);
  EXPECT_THROW((void)Bytes(kMax - kCut + 2), std::bad_alloc);
  EXPECT_THROW((void)Bytes(std::size_t{1} << 48), std::bad_alloc);
}
