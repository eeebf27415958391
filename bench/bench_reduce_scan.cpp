// CS40-reduce / T3-scan — "parallel reductions on large arrays" (the CUDA
// lab's CPU substitute) and the Scan paradigm: the reduction (per-thread
// partials, sequential combine) and the three-phase block scan scaling
// with threads, plus pack and histogram applications.
//
// Expected shape: reduce/scan speed up to the core count; scan costs ~2x
// a reduce (two passes); pack tracks scan.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <iostream>
#include <numeric>
#include <random>

#include "pdc/algo/prefix.hpp"
#include "pdc/core/reduce_scan.hpp"
#include "pdc/perf/scalability.hpp"
#include "pdc/perf/table.hpp"

namespace {

void print_reduction_study() {
  const std::size_t n = 1 << 23;
  std::vector<double> xs(n);
  std::mt19937_64 rng(2);
  for (auto& x : xs) x = static_cast<double>(rng() % 1000) / 500.0 - 1.0;

  pdc::perf::StudyConfig cfg;
  cfg.thread_counts = {1, 2, 4, 8};
  cfg.repetitions = 3;

  const auto reduce_study =
      pdc::perf::run_strong_scaling(cfg, [&](int threads) {
        volatile double sink =
            pdc::core::parallel_reduce<double>(xs, 0.0, threads);
        (void)sink;
      });
  std::cout << "== CS40-reduce: per-thread partial reduction of 2^23 "
               "doubles ==\n"
            << reduce_study.to_table() << "\n";

  std::vector<double> out(n);
  const auto scan_study =
      pdc::perf::run_strong_scaling(cfg, [&](int threads) {
        pdc::core::parallel_inclusive_scan<double>(xs, out, 0.0, threads);
      });
  std::cout << "== T3-scan: three-phase block inclusive scan of 2^23 "
               "doubles ==\n"
            << scan_study.to_table() << "\n";
}

void BM_Reduce(benchmark::State& state) {
  const std::size_t n = 1 << 22;
  std::vector<std::int64_t> xs(n);
  std::iota(xs.begin(), xs.end(), 0);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pdc::core::parallel_reduce<std::int64_t>(xs, 0, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Reduce)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_InclusiveScan(benchmark::State& state) {
  const std::size_t n = 1 << 22;
  std::vector<std::int64_t> xs(n), out(n);
  std::iota(xs.begin(), xs.end(), 0);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pdc::core::parallel_inclusive_scan<std::int64_t>(xs, out, 0, threads);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InclusiveScan)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Pack(benchmark::State& state) {
  const std::size_t n = 1 << 21;
  std::vector<std::int64_t> xs(n);
  std::mt19937_64 rng(3);
  for (auto& x : xs) x = static_cast<std::int64_t>(rng() % 100);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto kept = pdc::algo::parallel_pack<std::int64_t>(
        xs, [](std::int64_t v) { return v < 50; }, threads);
    benchmark::DoNotOptimize(kept);
  }
}
BENCHMARK(BM_Pack)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Histogram(benchmark::State& state) {
  const std::size_t n = 1 << 22;
  std::vector<std::int64_t> xs(n);
  std::mt19937_64 rng(4);
  for (auto& x : xs) x = static_cast<std::int64_t>(rng() % 256);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto hist = pdc::algo::parallel_histogram<std::int64_t>(
        xs, 256, [](std::int64_t v) { return static_cast<std::size_t>(v); },
        threads);
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Histogram)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_DotProduct(benchmark::State& state) {
  const std::size_t n = 1 << 22;
  std::vector<double> xs(n, 1.5);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const double dot = pdc::core::parallel_transform_reduce<double, double>(
        xs, 0.0, threads, [](double x) { return x * x; });
    benchmark::DoNotOptimize(dot);
  }
}
BENCHMARK(BM_DotProduct)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const auto opt = pdc::benchutil::parse_args(argc, argv);
  print_reduction_study();
  return pdc::benchutil::finish(opt, argc, argv);
}
