// Runtime ablation: persistent pooled team executor vs fork-per-region.
//
// Every parallel construct in pdc::core launches SPMD regions; before the
// TeamPool, each region paid P x (jthread spawn + join). The pool parks
// its workers between regions and hands each one a rank directly, which
// is the overhead OpenMP-style runtimes amortize. This bench measures
// exactly that gap: region-launch latency (empty body) and parallel_for
// throughput on a small loop, pooled vs forked, across thread counts —
// the reason every downstream parallel bench is now less dominated by
// thread-creation noise. The "2 in 2" row nests a 2-rank region inside
// each rank of a 2-rank region, which the pool serves like any other.
// At P=2 and P=4 the table also times an empty in-process
// mp::Communicator world, which runs its ranks as one pooled region, so
// it should cost a pooled region plus the world's own bookkeeping.
//
// Expected shape: pooled launch latency is several-fold (target >= 5x at
// 8 threads) below forked and grows slowly with P; the gap shrinks as the
// loop body grows because real work hides launch overhead.
//
// A third table prices the team barrier inside a region: each step is
// two barriers around fixed work on every rank, plus a fixed serial gap
// on rank 0 after the second, the shape of a stencil step. It runs at
// P=2 and at an oversubscribed P, where a waiter that holds its CPU
// delays the ranks still to arrive: 4 ranks per hardware thread, capped
// at 64 ranks. Where the cap leaves fewer than 2 ranks per hardware
// thread (more than 32 hardware threads) that row is left out, and the
// table says so.
//
// Every cell is the median [first quartile, third quartile] of
// kBatches timed batches: the host's capacity moves between runs, so a
// single best-of number hides how far a row swings.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "pdc/core/parallel_for.hpp"
#include "pdc/core/team.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/perf/table.hpp"
#include "pdc/perf/timer.hpp"
#include "pdc/sync/barrier.hpp"

namespace {

constexpr int kBatches = 11;

/// Quartiles of a row's batch timings.
struct Spread {
  double q1 = 0, median = 0, q3 = 0;
};

/// Times kBatches runs of `batch`, each `ops` operations, in microseconds
/// per operation.
template <class F>
Spread time_batches(int ops, const F& batch) {
  std::vector<double> us;
  for (int i = 0; i < kBatches; ++i)
    us.push_back(pdc::perf::time_seconds(batch) / ops * 1e6);
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(us.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, us.size() - 1);
    return us[lo] + (pos - static_cast<double>(lo)) * (us[hi] - us[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

std::string fmt(const Spread& s) {
  return pdc::perf::fmt(s.median, 2) + " [" + pdc::perf::fmt(s.q1, 2) + ", " +
         pdc::perf::fmt(s.q3, 2) + "]";
}

/// Empty region launches on the given path, in us per region. `nested`:
/// every rank launches an empty 2-rank region of its own.
Spread region_launch_us(int threads, bool reuse_pool, int regions,
                        bool nested = false) {
  const pdc::core::TeamOptions opt{.reuse_pool = reuse_pool};
  const auto body = [&](pdc::core::TeamContext&) {
    if (nested) pdc::core::Team::run(2, opt, [](pdc::core::TeamContext&) {});
  };
  return time_batches(regions, [&] {
    for (int i = 0; i < regions; ++i) pdc::core::Team::run(threads, opt, body);
  });
}

/// Empty in-process mp worlds, in us per world: Communicator::run with
/// an empty body, on one reused `ranks`-rank Communicator.
Spread world_launch_us(int ranks, int worlds) {
  pdc::mp::Communicator comm(ranks);
  return time_batches(worlds, [&] {
    for (int i = 0; i < worlds; ++i) comm.run([](pdc::mp::RankContext&) {});
  });
}

/// Busy-waits for `us` microseconds: the fixed work of a barrier step.
void busy_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// One pooled region of `steps` stencil-shaped steps on `threads` ranks,
/// in us per step (see the file comment).
Spread barrier_step_us(int threads, int work_us, int gap_us, int steps) {
  return time_batches(steps, [&] {
    pdc::core::Team::run(threads, [&](pdc::core::TeamContext& tc) {
      for (int s = 0; s < steps; ++s) {
        tc.barrier();
        busy_us(work_us);
        tc.barrier();
        if (tc.rank() == 0) busy_us(gap_us);
      }
    });
  });
}

void print_launch_table() {
  // Warm the pool so lazy worker start is not billed to the first row.
  pdc::core::Team::run(8, [](pdc::core::TeamContext&) {});

  pdc::perf::Table t({"threads", "forked us/region", "pooled us/region",
                      "forked/pooled", "mp world us/world", "world/pooled"});
  const auto ratio = [](const Spread& a, const Spread& b) {
    return pdc::perf::fmt(b.median > 0 ? a.median / b.median : 0.0, 1);
  };
  const auto add_row = [&](const std::string& label, int p, bool nested) {
    const int regions = p >= 4 || nested ? 200 : 500;
    const Spread forked = region_launch_us(p, false, regions, nested);
    const Spread pooled = region_launch_us(p, true, regions, nested);
    std::string world = "-", world_ratio = "-";
    if (!nested && (p == 2 || p == 4)) {
      const Spread w = world_launch_us(p, regions);
      world = fmt(w);
      world_ratio = ratio(w, pooled);
    }
    t.add_row({label, fmt(forked), fmt(pooled), ratio(forked, pooled), world,
               world_ratio});
  };
  for (int p : {1, 2, 4, 8}) add_row(std::to_string(p), p, false);
  add_row("2 in 2", 2, true);
  std::cout << "== region launch: persistent pool vs fork-per-region ==\n"
            << t.str()
            << "(median [quartiles] of " << kBatches
            << " batches; threads=1 runs inline on both paths; the forked "
               "column pays P spawns+joins per region; \"2 in 2\" times one "
               "2-rank region whose ranks each launch a 2-rank region; an mp "
               "world is one empty Communicator::run of P in-process ranks)"
               "\n\n";

  // The same gap seen through parallel_for on a short loop.
  std::vector<double> xs(1 << 14, 1.0);
  pdc::perf::Table t2({"threads", "forked us/loop", "pooled us/loop"});
  for (int p : {2, 4, 8}) {
    const auto time_loop = [&](bool reuse_pool) {
      pdc::core::ForOptions opt;
      opt.threads = p;
      opt.reuse_pool = reuse_pool;
      return time_batches(50, [&] {
        for (int rep = 0; rep < 50; ++rep) {
          pdc::core::parallel_for(0, xs.size(), opt,
                                  [&](std::size_t i) { xs[i] *= 1.0001; });
        }
      });
    };
    t2.add_row(
        {std::to_string(p), fmt(time_loop(false)), fmt(time_loop(true))});
  }
  std::cout << "== parallel_for (16K light iterations) ==\n"
            << t2.str()
            << "(launch overhead is the difference; it shrinks as the "
               "body grows)\n\n";

  // Per-step barrier overhead: the step time beyond its work, which on P
  // ranks and C hardware threads takes at least ceil(P / C) x work + gap.
  constexpr int kWorkUs = 10, kGapUs = 15, kSteps = 200, kMaxRanks = 64;
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int over = std::min(kMaxRanks, 4 * hw);
  std::vector<int> ranks{2};
  if (over >= 2 * hw) ranks.push_back(over);
  pdc::perf::Table t3({"ranks", "ranks per hw thread", "us/step",
                       "beyond work + gap, us/step"});
  for (int p : ranks) {
    const Spread step = barrier_step_us(p, kWorkUs, kGapUs, kSteps);
    const double floor_us = ((p + hw - 1) / hw) * kWorkUs + kGapUs;
    t3.add_row({std::to_string(p),
                pdc::perf::fmt(static_cast<double>(p) / hw, 2), fmt(step),
                fmt({step.q1 - floor_us, step.median - floor_us,
                     step.q3 - floor_us})});
  }
  std::cout << "== team barrier: two per step around " << kWorkUs
            << " us of work per rank, a " << kGapUs
            << " us serial gap on rank 0 ==\n"
            << t3.str() << "(" << kSteps << " steps per batch, " << hw
            << " hardware threads; the barrier polls for up to "
            << pdc::sync::CyclicBarrier::kSpinBudget.count()
            << " us before it parks";
  if (ranks.size() == 1)
    std::cout << "; no oversubscribed row: " << kMaxRanks
              << " ranks, the cap, is fewer than 2 per hardware thread";
  std::cout << ")\n\n";
}

void BM_RegionLaunchForked(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const pdc::core::TeamOptions opt{.reuse_pool = false};
  for (auto _ : state)
    pdc::core::Team::run(threads, opt, [](pdc::core::TeamContext&) {});
}
BENCHMARK(BM_RegionLaunchForked)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_RegionLaunchPooled(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const pdc::core::TeamOptions opt{.reuse_pool = true};
  for (auto _ : state)
    pdc::core::Team::run(threads, opt, [](pdc::core::TeamContext&) {});
}
BENCHMARK(BM_RegionLaunchPooled)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ParallelForPathComparison(benchmark::State& state) {
  std::vector<double> xs(1 << 14, 1.0);
  pdc::core::ForOptions opt;
  opt.threads = 4;
  opt.reuse_pool = state.range(0) != 0;
  for (auto _ : state) {
    pdc::core::parallel_for(0, xs.size(), opt,
                            [&](std::size_t i) { xs[i] *= 1.0001; });
    benchmark::DoNotOptimize(xs.data());
  }
}
BENCHMARK(BM_ParallelForPathComparison)
    ->Arg(0)   // forked
    ->Arg(1)   // pooled
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const auto opt = pdc::benchutil::parse_args(argc, argv);
  print_launch_table();
  return pdc::benchutil::finish(opt, argc, argv);
}
