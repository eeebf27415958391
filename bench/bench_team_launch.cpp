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
//
// Expected shape: pooled launch latency is several-fold (target >= 5x at
// 8 threads) below forked and grows slowly with P; the gap shrinks as the
// loop body grows because real work hides launch overhead.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "pdc/core/parallel_for.hpp"
#include "pdc/core/team.hpp"
#include "pdc/perf/table.hpp"
#include "pdc/perf/timer.hpp"

namespace {

/// Seconds per empty region launch on the given path. `nested`: every
/// rank launches an empty 2-rank region of its own.
double region_launch_seconds(int threads, bool reuse_pool, int regions,
                             bool nested = false) {
  const pdc::core::TeamOptions opt{.reuse_pool = reuse_pool};
  const auto body = [&](pdc::core::TeamContext&) {
    if (nested) pdc::core::Team::run(2, opt, [](pdc::core::TeamContext&) {});
  };
  return pdc::perf::time_best_of(3, [&] {
           for (int i = 0; i < regions; ++i)
             pdc::core::Team::run(threads, opt, body);
         }) /
         regions;
}

void print_launch_table() {
  // Warm the pool so lazy worker start is not billed to the first row.
  pdc::core::Team::run(8, [](pdc::core::TeamContext&) {});

  pdc::perf::Table t({"threads", "forked us/region", "pooled us/region",
                      "forked/pooled"});
  const auto add_row = [&](const std::string& label, int p, bool nested) {
    const int regions = p >= 4 || nested ? 200 : 500;
    const double forked =
        region_launch_seconds(p, false, regions, nested) * 1e6;
    const double pooled = region_launch_seconds(p, true, regions, nested) * 1e6;
    t.add_row({label, pdc::perf::fmt(forked, 2), pdc::perf::fmt(pooled, 2),
               pdc::perf::fmt(pooled > 0 ? forked / pooled : 0.0, 1)});
  };
  for (int p : {1, 2, 4, 8}) add_row(std::to_string(p), p, false);
  add_row("2 in 2", 2, true);
  std::cout << "== region launch: persistent pool vs fork-per-region ==\n"
            << t.str()
            << "(threads=1 runs inline on both paths; the forked column "
               "pays P spawns+joins per region; \"2 in 2\" times one 2-rank "
               "region whose ranks each launch a 2-rank region)\n\n";

  // The same gap seen through parallel_for on a short loop.
  std::vector<double> xs(1 << 14, 1.0);
  pdc::perf::Table t2({"threads", "forked us/loop", "pooled us/loop"});
  for (int p : {2, 4, 8}) {
    const auto time_loop = [&](bool reuse_pool) {
      pdc::core::ForOptions opt;
      opt.threads = p;
      opt.reuse_pool = reuse_pool;
      return pdc::perf::time_best_of(3, [&] {
               for (int rep = 0; rep < 50; ++rep) {
                 pdc::core::parallel_for(
                     0, xs.size(), opt,
                     [&](std::size_t i) { xs[i] *= 1.0001; });
               }
             }) /
             50 * 1e6;
    };
    t2.add_row({std::to_string(p), pdc::perf::fmt(time_loop(false), 2),
                pdc::perf::fmt(time_loop(true), 2)});
  }
  std::cout << "== parallel_for (16K light iterations) ==\n"
            << t2.str()
            << "(launch overhead is the difference; it shrinks as the "
               "body grows)\n\n";
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
