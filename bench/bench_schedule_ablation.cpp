// Ablation: OpenMP-style loop schedules on balanced vs imbalanced work —
// the design choice DESIGN.md calls out for pdc::core::parallel_for. The
// CS87 programming unit has students discover exactly this: static wins
// on uniform work, dynamic/guided win when iteration costs vary, and the
// dynamic chunk size trades contention against balance. The work-stealing
// schedule (Chase–Lev deques + lazy binary splitting) is priced against
// all three: it should match static on uniform loops (O(log n) deque
// traffic) and beat it on skewed ones (idle workers steal the heavy
// tail), with the imbalance visible in the core.steals / core.splits
// counters printed below.
//
// Expected shape (2+ cores): on the triangular workload static is ~2x
// slower than dynamic/guided/stealing; on the uniform workload stealing
// is within 10% of static. On the clustered-glider board the stencil
// engine's tile stealing is priced against the one-thread plan {1,1},
// with the steal counters showing how many tiles changed hands.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "pdc/core/parallel_for.hpp"
#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/perf/table.hpp"
#include "pdc/perf/timer.hpp"

namespace {

constexpr int kThreads = 4;

/// Iteration i costs Θ(i): the triangular (imbalanced) workload.
void triangular_body(std::size_t i, volatile double* sink) {
  double acc = 0;
  for (std::size_t k = 0; k < i; ++k) acc += std::sqrt(static_cast<double>(k));
  *sink = acc;
}

double time_triangular(pdc::core::Schedule sched, std::size_t chunk,
                       std::size_t n, volatile double* sink) {
  pdc::core::ForOptions opt;
  opt.threads = kThreads;
  opt.schedule = sched;
  opt.chunk = chunk;
  return pdc::perf::time_best_of(3, [&] {
    pdc::core::parallel_for(0, n, opt,
                            [&](std::size_t i) { triangular_body(i, sink); });
  });
}

void print_schedule_table(bool smoke) {
  const std::size_t kN = smoke ? 1500 : 3000;
  volatile double sink = 0;

  pdc::perf::Table t({"schedule", "chunk", "seconds (imbalanced loop)"});
  t.add_row({"static", "-",
             pdc::perf::fmt(
                 time_triangular(pdc::core::Schedule::kStatic, 64, kN, &sink),
                 4)});
  for (std::size_t chunk : {1u, 16u, 64u, 256u}) {
    t.add_row({"dynamic", std::to_string(chunk),
               pdc::perf::fmt(time_triangular(pdc::core::Schedule::kDynamic,
                                              chunk, kN, &sink),
                              4)});
  }
  t.add_row({"guided", "16",
             pdc::perf::fmt(
                 time_triangular(pdc::core::Schedule::kGuided, 16, kN, &sink),
                 4)});
  for (std::size_t chunk : {16u, 64u}) {
    t.add_row({"stealing", std::to_string(chunk),
               pdc::perf::fmt(time_triangular(pdc::core::Schedule::kStealing,
                                              chunk, kN, &sink),
                              4)});
  }
  std::cout << "== schedule ablation: triangular workload, " << kThreads
            << " threads ==\n"
            << t.str()
            << "(static assigns the heavy tail to one worker; dynamic and "
               "guided rebalance from a shared counter, stealing sheds "
               "ranges to idle thieves)\n\n";
}

void print_uniform_table(bool smoke) {
  // Constant per-iteration cost: the schedule can only add overhead
  // here. Acceptance: stealing within 10% of static.
  const std::size_t kN = smoke ? (1u << 18) : (1u << 20);
  std::vector<double> xs(kN, 1.0);

  pdc::perf::Table t({"schedule", "seconds (uniform loop)"});
  const auto time_with = [&](pdc::core::Schedule sched) {
    pdc::core::ForOptions opt;
    opt.threads = kThreads;
    opt.schedule = sched;
    opt.chunk = 1024;
    return pdc::perf::time_best_of(3, [&] {
      pdc::core::parallel_for(0, xs.size(), opt,
                              [&](std::size_t i) { xs[i] = xs[i] * 1.0001; });
    });
  };
  t.add_row({"static", pdc::perf::fmt(time_with(pdc::core::Schedule::kStatic),
                                      4)});
  t.add_row({"dynamic",
             pdc::perf::fmt(time_with(pdc::core::Schedule::kDynamic), 4)});
  t.add_row({"guided",
             pdc::perf::fmt(time_with(pdc::core::Schedule::kGuided), 4)});
  t.add_row({"stealing",
             pdc::perf::fmt(time_with(pdc::core::Schedule::kStealing), 4)});
  std::cout << "== schedule ablation: uniform workload, " << kThreads
            << " threads, chunk 1024 ==\n"
            << t.str()
            << "(uniform loops measure pure schedule overhead; stealing "
               "pays only O(log(n/chunk)) deque operations per worker)\n\n";
}

void print_steal_counter_table(bool smoke) {
  // Where did the iterations actually run? Deltas of the obs counters
  // around one stealing run: steals/splits plus the per-worker
  // executed-chunk spread (max/min ≈ 1 means the tail was shed evenly).
  const std::size_t kN = smoke ? 1500 : 3000;
  volatile double sink = 0;

  pdc::perf::Table t({"workload", "steal attempts", "steals", "splits",
                      "chunks/worker min..max"});
  const auto study = [&](const char* name, std::size_t chunk,
                         const auto& run) {
    const auto before = pdc::obs::metrics_snapshot();
    run(chunk);
    const auto d = pdc::obs::metrics_snapshot() - before;
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (int r = 0; r < kThreads; ++r) {
      const auto c = d.counter("core.for.chunks.r" + std::to_string(r));
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    t.add_row({name, std::to_string(d.counter("core.steal_attempts")),
               std::to_string(d.counter("core.steals")),
               std::to_string(d.counter("core.splits")),
               std::to_string(lo) + ".." + std::to_string(hi)});
  };
  const auto tri = [&](std::size_t chunk) {
    time_triangular(pdc::core::Schedule::kStealing, chunk, kN, &sink);
  };
  study("triangular, chunk 16", 16, tri);
  study("triangular, chunk 64", 64, tri);
  std::vector<double> xs(smoke ? (1u << 16) : (1u << 18), 1.0);
  study("uniform, chunk 1024", 1024, [&](std::size_t chunk) {
    pdc::core::ForOptions opt;
    opt.threads = kThreads;
    opt.schedule = pdc::core::Schedule::kStealing;
    opt.chunk = chunk;
    pdc::core::parallel_for(0, xs.size(), opt,
                            [&](std::size_t i) { xs[i] = xs[i] * 1.0001; });
  });
  std::cout << "== work-stealing counters (kStealing, " << kThreads
            << " threads; deltas per run) ==\n"
            << t.str()
            << "(timed runs repeat the loop, so counts cover several "
               "sweeps; uniform loops split but barely steal)\n\n";
}

/// Board with all live cells — a block of gliders — clustered in the
/// top-left corner, so each step's active tile list is short. The engine
/// compacts that list before seeding the workers' deques, so every
/// worker starts a step with an equal share of the live tiles; stealing
/// evens out what their uneven costs leave.
pdc::life::Grid clustered_glider_board(std::size_t rows, std::size_t cols) {
  pdc::life::Grid g(rows, cols, pdc::life::Boundary::kDead);
  constexpr std::size_t glider[5][2] = {
      {0, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}};
  for (std::size_t gr = 0; gr + 8 < rows / 4; gr += 8)
    for (std::size_t gc = 0; gc + 8 < cols / 4; gc += 8)
      for (const auto& [dr, dc] : glider) g.set(gr + dr, gc + dc, true);
  return g;
}

void print_tile_steal_table(bool smoke) {
  const std::size_t rows = smoke ? 256 : 512;
  const std::size_t cols = smoke ? 512 : 1024;
  const int gens = smoke ? 20 : 60;

  pdc::life::EngineOptions opt;
  opt.tile_rows = 16;
  opt.tile_words = 1;

  pdc::perf::Table t({"plan", "seconds", "tile steals", "steal attempts"});
  for (const int threads : {1, kThreads}) {
    const pdc::stencil::ExecPlan plan{.threads_per_rank = threads};
    const auto before = pdc::obs::metrics_snapshot();
    const double secs = pdc::perf::time_best_of(3, [&] {
      pdc::life::Grid board = clustered_glider_board(rows, cols);
      pdc::life::run_plan(board, gens, plan, opt);
    });
    const auto d = pdc::obs::metrics_snapshot() - before;
    t.add_row({"{1," + std::to_string(threads) + "}", pdc::perf::fmt(secs, 4),
               std::to_string(d.counter("stencil.steals")),
               std::to_string(d.counter("stencil.steal_attempts"))});
  }
  std::cout << "== tile stealing: clustered-glider board " << rows << "x"
            << cols << ", " << gens << " gens, {1,1} vs {1," << kThreads
            << "} ==\n"
            << t.str()
            << "(each step's compacted active list is split evenly across "
               "the workers' deques; steals move the tiles a slower worker "
               "has not reached — results are bit-identical)\n\n";
}

void BM_ScheduleOnImbalanced(benchmark::State& state) {
  const auto sched = static_cast<pdc::core::Schedule>(state.range(0));
  volatile double sink = 0;
  pdc::core::ForOptions opt;
  opt.threads = kThreads;
  opt.schedule = sched;
  opt.chunk = 16;
  for (auto _ : state) {
    pdc::core::parallel_for(0, 2000, opt,
                            [&](std::size_t i) { triangular_body(i, &sink); });
  }
}
BENCHMARK(BM_ScheduleOnImbalanced)
    ->Arg(static_cast<int>(pdc::core::Schedule::kStatic))
    ->Arg(static_cast<int>(pdc::core::Schedule::kDynamic))
    ->Arg(static_cast<int>(pdc::core::Schedule::kGuided))
    ->Arg(static_cast<int>(pdc::core::Schedule::kStealing))
    ->UseRealTime();

void BM_ScheduleOnUniform(benchmark::State& state) {
  const auto sched = static_cast<pdc::core::Schedule>(state.range(0));
  std::vector<double> xs(1 << 20, 1.0);
  pdc::core::ForOptions opt;
  opt.threads = kThreads;
  opt.schedule = sched;
  opt.chunk = 1024;
  for (auto _ : state) {
    pdc::core::parallel_for(0, xs.size(), opt,
                            [&](std::size_t i) { xs[i] = xs[i] * 1.0001; });
    benchmark::DoNotOptimize(xs.data());
  }
}
BENCHMARK(BM_ScheduleOnUniform)
    ->Arg(static_cast<int>(pdc::core::Schedule::kStatic))
    ->Arg(static_cast<int>(pdc::core::Schedule::kDynamic))
    ->Arg(static_cast<int>(pdc::core::Schedule::kGuided))
    ->Arg(static_cast<int>(pdc::core::Schedule::kStealing))
    ->UseRealTime();

void BM_DynamicChunkSweep(benchmark::State& state) {
  volatile double sink = 0;
  pdc::core::ForOptions opt;
  opt.threads = kThreads;
  opt.schedule = pdc::core::Schedule::kDynamic;
  opt.chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pdc::core::parallel_for(0, 2000, opt,
                            [&](std::size_t i) { triangular_body(i, &sink); });
  }
}
BENCHMARK(BM_DynamicChunkSweep)->Arg(1)->Arg(8)->Arg(64)->Arg(512)
    ->UseRealTime();

void BM_TileStealingOnClusteredBoard(benchmark::State& state) {
  pdc::life::EngineOptions opt;
  opt.tile_rows = 16;
  opt.tile_words = 1;
  const pdc::stencil::ExecPlan plan{
      .threads_per_rank = static_cast<int>(state.range(0))};
  for (auto _ : state) {
    pdc::life::Grid board = clustered_glider_board(256, 512);
    pdc::life::run_plan(board, 20, plan, opt);
  }
}
BENCHMARK(BM_TileStealingOnClusteredBoard)->Arg(1)->Arg(kThreads)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const auto opt = pdc::benchutil::parse_args(argc, argv);
  print_schedule_table(opt.smoke);
  print_uniform_table(opt.smoke);
  print_steal_counter_table(opt.smoke);
  print_tile_steal_table(opt.smoke);
  return pdc::benchutil::finish(opt, argc, argv);
}
