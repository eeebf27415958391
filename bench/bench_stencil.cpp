// bench_stencil — prices the generic 2-D stencil engine's two headline
// claims and exercises the heat workload across all three execution
// modes:
//
//   1. dirty-tile skipping: a sparse Life board (soup confined to one
//      corner, <= 10% of tiles ever active) runs >= 3x faster than the
//      full sweep, bit-identically (the equivalence is asserted in
//      tests/stencil_test.cpp; here we price it).
//   2. 2-D vs row-only tiling: on a wide board with a narrow active
//      column band, row tiles can never sleep (every row intersects the
//      band) while 2-D tiles skip the quiet columns.
//   3. the heat kernel alone: ns/cell on normal vs subnormal floats at
//      every vector width the CPU runs, the penalty a cooling field's cold
//      front pays in every cell.
//
// The model-counts study emits *exact* deterministic numbers (halo wire
// words, tiles computed/skipped, heat convergence steps) — the same rows
// under --smoke and full runs — which `--json=FILE` exports and CI diffs
// against bench/expectations/BENCH_stencil.json.
//
// `--trace=trace.json` produces the Chrome-trace demo: per-step spans
// shrink as the board settles and tiles drop out of the active set.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <random>
#include <string>
#include <utility>

#include "bench_util.hpp"

#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/perf/table.hpp"
#include "pdc/perf/timer.hpp"
#include "pdc/stencil/heat.hpp"
#include "pdc/stencil/tile.hpp"
#include "pdc/stencil/vector_width.hpp"

namespace {

namespace pl = pdc::life;
namespace ps = pdc::stencil;

/// Both kernels pick their vector width on first use: step each once, so
/// the header names the width every timing below ran at.
void print_kernel_widths() {
  pl::Grid board(1, 1);
  pl::run_plan(board, 1, {});
  ps::HeatField field(1, 1);
  ps::heat_relax_plan(field, ps::HeatOptions{.max_steps = 1}, {});
  std::cout << "== kernels: heat "
            << pdc::obs::gauge("stencil.heat_kernel_lanes").value()
            << " floats per vector, life "
            << pdc::obs::gauge("life.kernel_words_per_vector").value()
            << " words per vector (widest of";
  for (const std::size_t bytes : ps::vector_widths())
    std::cout << " " << bytes;
  std::cout << " bytes) ==\n\n";
}

/// Board that is dead except for random soup in the top-left
/// `block_rows x block_cols` corner — the sparse workload where skipping
/// should shine.
pl::Grid sparse_board(std::size_t rows, std::size_t cols,
                      std::size_t block_rows, std::size_t block_cols,
                      std::uint64_t seed) {
  pl::Grid soup = pl::random_grid(block_rows, block_cols, 0.35, seed,
                                  pl::Boundary::kDead);
  pl::Grid board(rows, cols, pl::Boundary::kDead);
  for (std::size_t r = 0; r < block_rows; ++r)
    for (std::size_t c = 0; c < block_cols; ++c)
      board.set(r, c, soup.get(r, c));
  return board;
}

double run_life_timed(const pl::Grid& start, int gens,
                      const pl::EngineOptions& opt, ps::RunResult& res) {
  pl::Grid board = start;
  pdc::perf::Timer t;
  res = pl::run_plan(board, gens, {}, opt);
  const auto ns = static_cast<double>(t.elapsed_ns());
  benchmark::DoNotOptimize(board);
  return ns / 1e6;  // ms
}

void print_skip_ablation(pdc::benchutil::Options& bopt) {
  const std::size_t n = bopt.smoke ? 1024 : 2048;
  const int gens = bopt.smoke ? 150 : 300;
  const pl::Grid start = sparse_board(n, n, n / 16, n / 16, 42);
  pl::EngineOptions opt;
  opt.tile_rows = 32;
  opt.tile_words = 4;

  const auto before = pdc::obs::metrics_snapshot();
  ps::RunResult on, off;
  opt.skip_quiescent = false;
  const double off_ms = run_life_timed(start, gens, opt, off);
  opt.skip_quiescent = true;
  const double on_ms = run_life_timed(start, gens, opt, on);
  const auto delta = pdc::obs::metrics_snapshot() - before;

  const auto total = on.tiles_computed + on.tiles_skipped;
  pdc::perf::Table t({"mode", "ms", "tiles computed", "tiles skipped",
                      "skip rate", "speedup"});
  t.add_row({"full sweep", pdc::perf::fmt(off_ms, 1),
             std::to_string(off.tiles_computed), "0", "0.00", "1.00"});
  t.add_row({"dirty-tile skip", pdc::perf::fmt(on_ms, 1),
             std::to_string(on.tiles_computed),
             std::to_string(on.tiles_skipped),
             pdc::perf::fmt(static_cast<double>(on.tiles_skipped) /
                                static_cast<double>(total),
                            2),
             pdc::perf::fmt(off_ms / on_ms, 2)});
  std::cout << "== stencil: dirty-tile skipping on sparse Life (" << n << "x"
            << n << ", soup in " << n / 16 << "x" << n / 16 << " corner, "
            << gens << " gens) ==\n"
            << t.str()
            << "(obs stencil.tiles_skipped delta: "
            << delta.counter("stencil.tiles_skipped")
            << "; acceptance: speedup >= 3x, results bit-identical — "
               "asserted in stencil_test)\n\n";
  bopt.add_json_table("skip ablation", t);
}

void print_tiling_shape_study(pdc::benchutil::Options& bopt) {
  // Wide board, activity confined to a narrow left column band: row
  // tiles all intersect the band and can never sleep; 2-D tiles put the
  // quiet right-hand words to bed.
  const std::size_t rows = bopt.smoke ? 256 : 512;
  const std::size_t cols = bopt.smoke ? 16384 : 32768;
  const int gens = bopt.smoke ? 30 : 60;
  const pl::Grid start = sparse_board(rows, cols, rows, 256, 7);

  pl::EngineOptions row_opt;
  row_opt.tile_rows = 32;
  row_opt.tile_words = cols / 64;  // one tile spans the whole row
  pl::EngineOptions tile_opt;
  tile_opt.tile_rows = 32;
  tile_opt.tile_words = 16;

  ps::RunResult row_res, tile_res;
  const double row_ms = run_life_timed(start, gens, row_opt, row_res);
  const double tile_ms = run_life_timed(start, gens, tile_opt, tile_res);

  const auto rate = [](const ps::RunResult& r) {
    return static_cast<double>(r.tiles_skipped) /
           static_cast<double>(r.tiles_computed + r.tiles_skipped);
  };
  pdc::perf::Table t(
      {"tiling", "tile shape", "ms", "skip rate", "speedup"});
  t.add_row({"row-only", "32 x " + std::to_string(cols / 64) + " words",
             pdc::perf::fmt(row_ms, 1), pdc::perf::fmt(rate(row_res), 2),
             "1.00"});
  t.add_row({"2-D", "32 x 16 words", pdc::perf::fmt(tile_ms, 1),
             pdc::perf::fmt(rate(tile_res), 2),
             pdc::perf::fmt(row_ms / tile_ms, 2)});
  std::cout << "== stencil: 2-D vs row-only tiling (" << rows << "x" << cols
            << " board, 256-column active band, " << gens << " gens) ==\n"
            << t.str()
            << "(row tiles intersect the band and never sleep; 2-D tiles "
               "skip the quiet columns)\n\n";
  bopt.add_json_table("tiling shape", t);
}

/// The hybrid ladder: the same 8 cores sliced as 8x1 (pure message
/// passing), 4x2, 2x4, and 1x8 (pure shared memory), each strip rank
/// receiving its halo while its team computes interior tiles. Results
/// are bit-identical down every row (asserted in stencil_test); this
/// table prices the shapes.
void print_hybrid_ladder(pdc::benchutil::Options& bopt) {
  const std::size_t rows = bopt.smoke ? 512 : 1024;
  const std::size_t cols = bopt.smoke ? 1024 : 2048;
  const int gens = bopt.smoke ? 12 : 40;
  const pl::Grid start = pl::random_grid(rows, cols, 0.3, 13);
  pl::EngineOptions opt;
  opt.tile_rows = 32;
  opt.tile_words = 4;

  pdc::perf::Table t({"plan (ranks x threads)", "ms", "halo words"});
  constexpr std::pair<int, int> kLadder[] = {{8, 1}, {4, 2}, {2, 4}, {1, 8}};
  for (const auto& [ranks, threads] : kLadder) {
    const ps::ExecPlan plan{.ranks = ranks, .threads_per_rank = threads};
    ps::RunResult res;
    const double ms = pdc::perf::time_best_of(3, [&] {
                        pl::Grid board = start;
                        res = pl::run_plan(board, gens, plan, opt);
                        benchmark::DoNotOptimize(board);
                      }) *
                      1e3;
    t.add_row({std::to_string(ranks) + " x " + std::to_string(threads),
               pdc::perf::fmt(ms, 1), std::to_string(res.halo_words)});
  }
  std::cout << "== stencil: hybrid ladder, 8 cores as ranks x threads ("
            << rows << "x" << cols << " torus soup, " << gens
            << " gens) ==\n"
            << t.str()
            << "(every row computes the bit-identical board; each strip "
               "rank receives its halo while its team computes interior "
               "tiles)\n\n";
  bopt.add_json_table("hybrid ladder", t);
}

void print_heat_engines(pdc::benchutil::Options& bopt) {
  const std::size_t rows = 96, cols = 128;
  ps::HeatOptions hopt;
  hopt.conductivity = 0.25;
  hopt.converge_eps = 1e-4;
  hopt.tile_rows = 16;
  hopt.tile_cols = 32;
  const auto make = [&] {
    ps::HeatField f(rows, cols, 0.0f);
    f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
    return f;
  };

  pdc::perf::Table t({"engine", "steps", "residual", "tiles computed",
                      "tiles skipped", "ms"});
  const auto add = [&](const char* name, auto&& run) {
    ps::HeatField f = make();
    pdc::perf::Timer timer;
    const ps::RunResult res = run(f);
    const auto ms = static_cast<double>(timer.elapsed_ns()) / 1e6;
    t.add_row({name, std::to_string(res.steps),
               pdc::perf::fmt(res.last_delta, 6),
               std::to_string(res.tiles_computed),
               std::to_string(res.tiles_skipped), pdc::perf::fmt(ms, 1)});
  };
  add("sequential",
      [&](ps::HeatField& f) { return ps::heat_relax_plan(f, hopt, {}); });
  add("threaded x4", [&](ps::HeatField& f) {
    return ps::heat_relax_plan(f, hopt, {.threads_per_rank = 4});
  });
  add("mp x4",
      [&](ps::HeatField& f) { return ps::heat_relax_mp(f, hopt, 4); });
  add("hybrid 2x2", [&](ps::HeatField& f) {
    return ps::heat_relax_plan(
        f, hopt, ps::ExecPlan{.ranks = 2, .threads_per_rank = 2});
  });

  std::cout << "== stencil: heat dissipation to convergence (" << rows << "x"
            << cols << ", hot top edge, eps=1e-4) ==\n"
            << t.str()
            << "(all engines must report identical steps and residual — "
               "asserted in stencil_test)\n\n";
  bopt.add_json_table("heat engines", t);
}

/// The heat kernel alone at every vector width this CPU runs: repeated
/// detail::heat_step_tile sweeps over 32x64 tiles, double-buffered like
/// the engine, on a field of normal floats and on one of subnormal floats.
/// A sweep keeps every cell inside its field's value range, so neither
/// field changes kind. The gap is the subnormal-operand penalty; it is
/// paid per instruction, so a wider vector shares each assist across more
/// cells.
void print_heat_kernel(pdc::benchutil::Options& bopt) {
  const std::size_t rows = 256, cols = 1024;
  const int sweeps = bopt.smoke ? 10 : 100;
  const ps::TileMap tiles(rows, cols, 32, 64);
  const ps::HeatWorkload w{0.25};
  const double cells = static_cast<double>(rows * cols) * sweeps;
  const auto field = [&](float lo, float hi) {
    ps::HeatField f(rows, cols);
    f.set_boundary(lo, hi, lo, hi);
    std::mt19937 rng(11);
    std::uniform_real_distribution<float> value(lo, hi);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        f.at(static_cast<std::ptrdiff_t>(r), static_cast<std::ptrdiff_t>(c)) =
            value(rng);
    return f;
  };
  const ps::HeatField normal = field(0.5f, 1.0f);
  const ps::HeatField subnormal = field(1e-40f, 1e-39f);

  pdc::perf::Table t({"lanes", "field", "values", "ns/cell", "vs normal"});
  for (const std::size_t bytes : ps::vector_widths()) {
    const std::string lanes = std::to_string(bytes / sizeof(float));
    double normal_ns = 0.0;
    const auto add = [&](const char* name, const char* range,
                         const ps::HeatField& start) {
      ps::HeatField a = start, b = start;
      double delta = 0.0;
      const double s = pdc::perf::time_best_of(3, [&] {
        for (int i = 0; i < sweeps; ++i) {
          const ps::HeatField& src = i % 2 == 0 ? a : b;
          ps::HeatField& dst = i % 2 == 0 ? b : a;
          for (std::size_t tile = 0; tile < tiles.count(); ++tile)
            delta = std::max(delta,
                             ps::detail::heat_step_tile(bytes, w, src, dst,
                                                        tiles.bounds(tile)));
        }
      });
      benchmark::DoNotOptimize(delta);
      benchmark::DoNotOptimize(a);
      const double ns = s * 1e9 / cells;
      if (normal_ns == 0.0) normal_ns = ns;
      t.add_row({lanes, name, range, pdc::perf::fmt(ns, 2),
                 pdc::perf::fmt(ns / normal_ns, 2)});
    };
    add("normal", "0.5 .. 1", normal);
    add("subnormal", "1e-40 .. 1e-39", subnormal);
  }

  std::cout << "== stencil: heat kernel on normal vs subnormal floats per "
               "vector width ("
            << rows << "x" << cols << ", 32x64 tiles, " << sweeps
            << " sweeps, best of 3) ==\n"
            << t.str()
            << "(a cooling field's cold front is subnormal; each assist is "
               "paid once per vector, shared by all its lanes)\n\n";
  bopt.add_json_table("heat kernel", t);
}

/// Exact, deterministic model counts — identical under --smoke and full
/// runs, diffed by CI against bench/expectations/BENCH_stencil.json.
void print_model_counts(pdc::benchutil::Options& bopt) {
  pdc::perf::Table t({"config", "steps", "tiles computed", "tiles skipped",
                      "halo words"});
  const auto add = [&](const std::string& name, const ps::RunResult& r) {
    t.add_row({name, std::to_string(r.steps),
               std::to_string(r.tiles_computed),
               std::to_string(r.tiles_skipped),
               std::to_string(r.halo_words)});
  };

  // Life, 256x256 torus soup: 4 payload words + 1 flag word per halo
  // message, 2 messages per rank per generation.
  const pl::Grid life_start = pl::random_grid(256, 256, 0.3, 3);
  pl::EngineOptions lopt;
  lopt.tile_rows = 32;
  lopt.tile_words = 2;
  {
    pl::Grid b = life_start;
    add("life seq 256x256 t32x2 g10", pl::run_plan(b, 10, {}, lopt));
  }
  {
    pl::Grid b = life_start;
    add("life mp4 256x256 t32x2 g10",
        pl::run_message_passing(b, 10, 4, lopt));
  }
  // Hybrid {2,4}: half the ranks of mp4, so half the halo words — and
  // the tile accounting is unchanged from the sequential row.
  {
    pl::Grid b = life_start;
    add("life hybrid 2x4 256x256 t32x2 g10",
        pl::run_plan(b, 10,
                     ps::ExecPlan{.ranks = 2, .threads_per_rank = 4}, lopt));
  }
  // Life, sparse corner soup: most tiles asleep; exact skip counts.
  {
    pl::Grid b = sparse_board(512, 512, 64, 64, 42);
    add("life seq sparse 512x512 t32x2 g20", pl::run_plan(b, 20, {}, lopt));
  }

  // Heat to convergence: steps must agree across engines (rows 4 and 5),
  // halo words = 2 edge ranks x 1 msg x (48 payload + 1 flag) per step
  // for the 2-rank strip run.
  ps::HeatOptions hopt;
  hopt.conductivity = 0.25;
  hopt.converge_eps = 1e-4;
  hopt.tile_rows = 16;
  hopt.tile_cols = 32;
  {
    ps::HeatField f(64, 96, 0.0f);
    f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
    add("heat seq 64x96 eps1e-4", ps::heat_relax_plan(f, hopt, {}));
  }
  {
    ps::HeatField f(64, 96, 0.0f);
    f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
    add("heat mp2 64x96 eps1e-4", ps::heat_relax_mp(f, hopt, 2));
  }
  // Hybrid {2,2} must reproduce the mp2 row's counts exactly: threads
  // and halo overlap change wall-clock, never a count.
  {
    ps::HeatField f(64, 96, 0.0f);
    f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
    add("heat hybrid 2x2 64x96 eps1e-4",
        ps::heat_relax_plan(
            f, hopt, ps::ExecPlan{.ranks = 2, .threads_per_rank = 2}));
  }

  std::cout << "== stencil: exact model counts (deterministic; diffed "
               "against bench/expectations/BENCH_stencil.json) ==\n"
            << t.str() << "\n";
  bopt.add_json_table("model counts", t);
}

void BM_LifeSparseSkip(benchmark::State& state) {
  const bool skip = state.range(0) != 0;
  auto board = sparse_board(1024, 1024, 64, 64, 7);
  pl::EngineOptions opt;
  opt.tile_rows = 32;
  opt.tile_words = 4;
  opt.skip_quiescent = skip;
  for (auto _ : state) {
    pl::run_plan(board, 8, {}, opt);
    benchmark::DoNotOptimize(board);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024 * 1024 * 8);
}
BENCHMARK(BM_LifeSparseSkip)->Arg(0)->Arg(1);

void BM_HeatStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ps::HeatField f(n, n, 0.0f);
  f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
  ps::HeatOptions hopt;
  hopt.converge_eps = -1.0;  // fixed step count: price the raw kernel
  hopt.max_steps = 4;
  for (auto _ : state) {
    ps::heat_relax_plan(f, hopt, {});
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n) * 4);
}
BENCHMARK(BM_HeatStep)->Arg(256)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  auto opt = pdc::benchutil::parse_args(argc, argv);
  print_kernel_widths();
  print_skip_ablation(opt);
  print_tiling_shape_study(opt);
  print_hybrid_ladder(opt);
  print_heat_engines(opt);
  print_heat_kernel(opt);
  print_model_counts(opt);
  return pdc::benchutil::finish(opt, argc, argv);
}
