// T1-life — Table I, "Parallel Game of Life ... Experimental Scalability
// Study": the lab report's speedup/efficiency table for the threaded
// engine, the message-passing engine's traffic accounting, timed
// generation kernels, the byte-vs-packed kernel throughput ratio (the
// SWAR rewrite's headline number), and the SWAR kernel alone at every
// vector width the CPU runs.
//
// Expected shape: near-linear speedup up to the core count, flattening
// beyond it; packed kernel >= 10x the byte reference on a 1024x1024 torus.
//
// `--smoke` runs the printed studies at reduced size and skips the
// google-benchmark loops (the CI Release job's quick exercise).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <iostream>

#include "bench_util.hpp"

#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/life/packed_grid.hpp"
#include "pdc/obs/metrics.hpp"
#include "pdc/perf/scalability.hpp"
#include "pdc/perf/table.hpp"
#include "pdc/perf/timer.hpp"
#include "pdc/stencil/vector_width.hpp"

namespace {

/// cells * generations / elapsed-ns for one engine run.
double cells_per_ns(std::size_t n, int gens,
                    const std::function<void(pdc::life::Grid&, int)>& engine,
                    const pdc::life::Grid& start) {
  pdc::life::Grid board = start;
  engine(board, 1);  // warmup (pool spin-up, page faults)
  board = start;
  pdc::perf::Timer t;
  engine(board, gens);
  const auto ns = static_cast<double>(t.elapsed_ns());
  benchmark::DoNotOptimize(board);
  return static_cast<double>(n) * static_cast<double>(n) * gens / ns;
}

void print_packed_vs_byte(bool smoke) {
  const std::size_t n = 1024;  // acceptance board: 1024x1024 torus
  const int byte_gens = smoke ? 2 : 6;
  const int packed_gens = smoke ? 64 : 256;
  const auto start = pdc::life::random_grid(n, n, 0.3, 42);

  const double byte_tp =
      cells_per_ns(n, byte_gens, pdc::life::run_reference, start);
  const double packed_tp = cells_per_ns(
      n, packed_gens,
      [](pdc::life::Grid& b, int g) { pdc::life::run_plan(b, g, {}); },
      start);

  pdc::perf::Table table({"kernel", "cells/ns", "ratio"});
  table.add_row({"byte reference", std::to_string(byte_tp), "1.00"});
  table.add_row({"packed SWAR", std::to_string(packed_tp),
                 std::to_string(packed_tp / byte_tp)});
  std::cout << "== T1-life: byte vs packed sequential kernel (" << n << "x"
            << n << " torus) ==\n"
            << table.str() << "(acceptance: packed >= 10x byte)\n\n";
}

/// The kernel picks its vector width on first use: step a board once, so
/// the header names the width every timing below ran at.
void print_kernel_width() {
  pdc::life::Grid board(1, 1);
  pdc::life::run_plan(board, 1, {});
  std::cout << "== T1-life: SWAR kernel at "
            << pdc::obs::gauge("life.kernel_words_per_vector").value()
            << " words per vector (widest of";
  for (const std::size_t bytes : pdc::stencil::vector_widths())
    std::cout << " " << bytes;
  std::cout << " bytes) ==\n\n";
}

/// The SWAR kernel alone at every vector width this CPU runs:
/// detail::step_rows sweeps of a whole 2048x2048 board, double-buffered,
/// without the engine, its ghost sync or the byte-grid conversion.
void print_kernel_per_width(pdc::benchutil::Options& bopt) {
  const std::size_t n = 2048;
  const int gens = bopt.smoke ? 10 : 100;
  const pdc::life::PackedGrid start(pdc::life::random_grid(n, n, 0.3, 42));
  pdc::perf::Table table(
      {"words/vector", "cells/ns", "us/generation", "vs 2 words"});
  double base_us = 0.0;
  for (const std::size_t bytes : pdc::stencil::vector_widths()) {
    pdc::life::PackedGrid a = start, b = start;
    const double s = pdc::perf::time_best_of(3, [&] {
      for (int g = 0; g < gens; ++g) {
        pdc::life::PackedGrid& src = g % 2 == 0 ? a : b;
        pdc::life::PackedGrid& dst = g % 2 == 0 ? b : a;
        // Padded rows: payload plus one halo word on each side.
        pdc::life::detail::step_rows(bytes, src.halo_above_words(),
                                     dst.row_words(0), src.words_per_row() + 2,
                                     n, src.words_per_row(), src.tail_mask());
      }
    });
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    const double us = s * 1e6 / gens;
    if (base_us == 0.0) base_us = us;
    table.add_row({std::to_string(bytes / sizeof(std::uint64_t)),
                   pdc::perf::fmt(static_cast<double>(n * n) / (us * 1e3), 2),
                   pdc::perf::fmt(us, 1), pdc::perf::fmt(base_us / us, 2)});
  }
  std::cout << "== T1-life: SWAR kernel per vector width (" << n << "x" << n
            << ", " << gens << " generations, best of 3) ==\n"
            << table.str() << "\n";
  bopt.add_json_table("life kernel", table);
}

void print_scalability_study(pdc::benchutil::Options& bopt) {
  const bool smoke = bopt.smoke;
  // The packed kernel turned a compute-bound lab into a near-memory-bound
  // one; the study board is much bigger than the byte-era 384x384 so a
  // generation's compute (n^2/64 words) still dominates the two
  // per-generation barriers at higher thread counts.
  const std::size_t n = smoke ? 512 : 2048;
  const int gens = smoke ? 30 : 50;
  const auto start = pdc::life::random_grid(n, n, 0.3, 42);

  pdc::perf::StudyConfig cfg;
  cfg.thread_counts = {1, 2, 4, 8};
  cfg.repetitions = smoke ? 2 : 3;
  const auto study = pdc::perf::run_strong_scaling(cfg, [&](int threads) {
    pdc::life::Grid board = start;
    pdc::life::run_plan(board, gens, {.threads_per_rank = threads});
  });

  std::cout << "== T1-life: threaded Game of Life strong scaling ("
            << n << "x" << n << " torus, " << gens << " generations, "
            << "packed kernel) ==\n"
            << study.to_table() << "\n";

  // Message-passing variant: traffic per rank count. Halo rows travel
  // packed — one word per 64 cells.
  pdc::perf::Table traffic({"ranks", "messages", "payload words moved",
                            "words/generation"});
  const std::size_t tn = smoke ? 256 : 384;
  const int tgens = 30;
  const auto tstart = pdc::life::random_grid(tn, tn, 0.3, 42);
  for (int ranks : {1, 2, 4, 8}) {
    pdc::life::Grid board = tstart;
    std::uint64_t msgs = 0, words = 0;
    pdc::life::run_message_passing(board, tgens, ranks, {}, &msgs, &words);
    traffic.add_row(
        {std::to_string(ranks), std::to_string(msgs), std::to_string(words),
         std::to_string(words / static_cast<std::uint64_t>(tgens))});
  }
  // Exact traffic accounting — deterministic for a fixed board, so the
  // CI release job diffs it against bench/expectations/ (the scaling
  // table above carries timings and stays print-only). Row values depend
  // on the board size, which --smoke changes; the expectation file is
  // generated at smoke size.
  bopt.add_json_table("mp halo traffic", traffic);
  std::cout << "== T1-life: message-passing halo-exchange traffic (" << tn
            << " columns = " << (tn + 63) / 64 << " words/halo row) ==\n"
            << traffic.str()
            << "(halo volume grows linearly with ranks: 2 packed rows x "
               "ranks per generation — 64x fewer words than the byte "
               "wire format)\n\n";
}

void BM_LifeReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto board = pdc::life::random_grid(n, n, 0.3, 7);
  for (auto _ : state) {
    pdc::life::run_reference(board, 1);
    benchmark::DoNotOptimize(board);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_LifeReference)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_LifeSequential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto board = pdc::life::random_grid(n, n, 0.3, 7);
  for (auto _ : state) {
    pdc::life::run_plan(board, 1, {});
    benchmark::DoNotOptimize(board);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_LifeSequential)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_LifeThreaded(benchmark::State& state) {
  const std::size_t n = 1024;
  const int threads = static_cast<int>(state.range(0));
  auto board = pdc::life::random_grid(n, n, 0.3, 7);
  for (auto _ : state) {
    pdc::life::run_plan(board, 1, {.threads_per_rank = threads});
    benchmark::DoNotOptimize(board);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_LifeThreaded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LifeMessagePassing(benchmark::State& state) {
  const std::size_t n = 256;
  const int ranks = static_cast<int>(state.range(0));
  auto board = pdc::life::random_grid(n, n, 0.3, 7);
  for (auto _ : state) {
    pdc::life::run_message_passing(board, 1, ranks);
    benchmark::DoNotOptimize(board);
  }
}
BENCHMARK(BM_LifeMessagePassing)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  auto opt = pdc::benchutil::parse_args(argc, argv);
  print_kernel_width();
  print_packed_vs_byte(opt.smoke);
  print_kernel_per_width(opt);
  print_scalability_study(opt);
  return pdc::benchutil::finish(opt, argc, argv);
}
