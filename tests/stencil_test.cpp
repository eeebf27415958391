// pdc::stencil — tile map / activity tracking units, the engine's
// skip-soundness contract (skipping is bit-identical to the full sweep),
// and the heat workload's cross-engine identity: the same options must
// produce the same iteration count, residual, and field on the
// sequential, threaded, and message-passing engines.

#include "pdc/stencil/engine.hpp"
#include "pdc/stencil/heat.hpp"
#include "pdc/stencil/tile.hpp"
#include "pdc/stencil/vector_width.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/obs/obs.hpp"

namespace ps = pdc::stencil;
namespace pl = pdc::life;
namespace mp = pdc::mp;
namespace obs = pdc::obs;

// ---------------------------------------------------------------- tiles ---

TEST(TileMap, CutsDomainIntoHalfOpenRectangles) {
  const ps::TileMap tm(10, 7, 4, 3);
  EXPECT_EQ(tm.tiles_y(), 3u);
  EXPECT_EQ(tm.tiles_x(), 3u);
  EXPECT_EQ(tm.count(), 9u);

  const ps::TileBounds first = tm.bounds(0);
  EXPECT_EQ(first.r0, 0u);
  EXPECT_EQ(first.r1, 4u);
  EXPECT_EQ(first.c0, 0u);
  EXPECT_EQ(first.c1, 3u);

  // Bottom-right tile is the ragged remainder.
  const ps::TileBounds last = tm.bounds(tm.count() - 1);
  EXPECT_EQ(last.r0, 8u);
  EXPECT_EQ(last.r1, 10u);
  EXPECT_EQ(last.c0, 6u);
  EXPECT_EQ(last.c1, 7u);
  EXPECT_EQ(last.rows(), 2u);
  EXPECT_EQ(last.cols(), 1u);

  // Every unit is covered exactly once.
  std::vector<int> hits(10 * 7, 0);
  for (std::size_t t = 0; t < tm.count(); ++t) {
    const auto b = tm.bounds(t);
    for (std::size_t r = b.r0; r < b.r1; ++r)
      for (std::size_t c = b.c0; c < b.c1; ++c) ++hits[r * 7 + c];
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(TileMap, ClampsOversizedTilesAndValidates) {
  const ps::TileMap tm(4, 4, 100, 100);
  EXPECT_EQ(tm.count(), 1u);
  EXPECT_EQ(tm.tile_h(), 4u);
  EXPECT_THROW(ps::TileMap(0, 4, 1, 1), std::invalid_argument);
  EXPECT_THROW(ps::TileMap(4, 4, 0, 1), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(tm.bounds(1)), std::out_of_range);
}

TEST(ActivityMap, StartsAllChangedSoFirstAdvanceActivatesEverything) {
  const ps::TileMap tm(9, 9, 3, 3);
  ps::ActivityMap act(tm, false, false);
  act.advance();
  EXPECT_EQ(act.active_count(), tm.count());
}

TEST(ActivityMap, DilatesChangedTilesToEightNeighbors) {
  const ps::TileMap tm(9, 9, 3, 3);  // 3x3 tiles
  ps::ActivityMap act(tm, false, false);
  act.advance();  // consume the initial all-changed state
  // Nothing changed -> everything sleeps.
  act.advance();
  EXPECT_EQ(act.active_count(), 0u);
  // One corner tile changed -> it and its 3 in-bounds neighbors wake.
  act.mark_changed(tm.index(0, 0), true);
  act.advance();
  EXPECT_EQ(act.active_count(), 4u);
  EXPECT_TRUE(act.active()[tm.index(0, 0)]);
  EXPECT_TRUE(act.active()[tm.index(0, 1)]);
  EXPECT_TRUE(act.active()[tm.index(1, 0)]);
  EXPECT_TRUE(act.active()[tm.index(1, 1)]);
}

TEST(ActivityMap, WrapDilatesAcrossEdges) {
  const ps::TileMap tm(9, 9, 3, 3);
  ps::ActivityMap act(tm, true, true);
  act.advance();
  act.mark_changed(tm.index(0, 0), true);
  act.advance();
  // Torus: the corner's 8 neighbors wrap -> 9 active tiles (all of a 3x3
  // tile grid).
  EXPECT_EQ(act.active_count(), 9u);
}

TEST(ActivityMap, ExternalFlagsReplaceRowWrapForStrips) {
  const ps::TileMap tm(3, 9, 3, 3);  // one tile row, three tile columns
  ps::ActivityMap act(tm, false, false);
  act.advance();
  act.advance();
  EXPECT_EQ(act.active_count(), 0u);
  // Neighbor rank reports its edge tile column 2 changed: our tiles 1
  // and 2 wake (8-neighbor dilation from above), tile 0 stays asleep.
  const std::uint8_t above[3] = {0, 0, 1};
  act.advance();
  act.activate_edges(above, nullptr);
  EXPECT_EQ(act.active_count(), 2u);
  EXPECT_FALSE(act.active()[0]);
  EXPECT_TRUE(act.active()[1]);
  EXPECT_TRUE(act.active()[2]);
}

namespace {

// The brute-force oracle for activate_edges: is any of the 3x3 cells
// around (r, c) set in a row-major flag grid `cols` wide? Rows never
// wrap (0 < r < the grid's last row); columns wrap when `wrap_cols`.
bool any_neighbor_set(const std::vector<std::uint8_t>& grid, std::size_t cols,
                      std::size_t r, std::size_t c, bool wrap_cols) {
  const auto w = static_cast<std::ptrdiff_t>(cols);
  for (std::size_t gr = r - 1; gr <= r + 1; ++gr) {
    for (std::ptrdiff_t gc = static_cast<std::ptrdiff_t>(c) - 1;
         gc <= static_cast<std::ptrdiff_t>(c) + 1; ++gc) {
      if ((gc < 0 || gc >= w) && !wrap_cols) continue;
      if (grid[gr * cols + static_cast<std::size_t>((gc + w) % w)] != 0)
        return true;
    }
  }
  return false;
}

}  // namespace

// A strip map's advance() then activate_edges(above, below) must equal
// the 8-neighbor dilation of the (tiles_y + 2)-row grid [above; changed;
// below], a null neighbor being a row of zeros: every map of 1-4 x 1-5
// tiles, with and without the column wrap, each neighbor present and
// null, on random flag patterns from sparse to dense.
TEST(ActivityMap, ActivateEdgesMatchesBruteForceDilation) {
  std::mt19937 gen(2013);
  for (std::size_t ty = 1; ty <= 4; ++ty) {
    for (std::size_t tx = 1; tx <= 5; ++tx) {
      const ps::TileMap tm(ty, tx, 1, 1);
      for (int shape = 0; shape < 8; ++shape) {
        const bool wrap = (shape & 1) != 0;
        const bool has_above = (shape & 2) != 0;
        const bool has_below = (shape & 4) != 0;
        for (int trial = 0; trial < 12; ++trial) {
          std::bernoulli_distribution coin(0.05 + 0.025 * trial);
          std::vector<std::uint8_t> grid((ty + 2) * tx, 0);
          for (std::size_t r = 0; r < ty + 2; ++r) {
            if ((r == 0 && !has_above) || (r == ty + 1 && !has_below))
              continue;
            for (std::size_t c = 0; c < tx; ++c)
              grid[r * tx + c] = coin(gen) ? 1 : 0;
          }
          ps::ActivityMap act(tm, false, wrap);
          act.advance();  // consume the initial all-changed state
          for (std::size_t t = 0; t < tm.count(); ++t)
            act.mark_changed(t, grid[tx + t] != 0);
          act.advance();
          act.activate_edges(has_above ? grid.data() : nullptr,
                             has_below ? grid.data() + (ty + 1) * tx : nullptr);
          for (std::size_t r = 0; r < ty; ++r) {
            for (std::size_t c = 0; c < tx; ++c) {
              EXPECT_EQ(act.active()[tm.index(r, c)] != 0,
                        any_neighbor_set(grid, tx, r + 1, c, wrap))
                  << ty << "x" << tx << " tiles, tile (" << r << "," << c
                  << ") wrap=" << wrap << " above=" << has_above
                  << " below=" << has_below << " trial=" << trial;
            }
          }
        }
      }
    }
  }
}

TEST(ActivityMap, CopyEdgeChangedSnapshotsBeforeAdvanceClears) {
  const ps::TileMap tm(6, 6, 3, 3);  // 2x2 tiles
  ps::ActivityMap act(tm, false, false);
  act.advance();
  act.mark_changed(tm.index(0, 1), true);
  act.mark_changed(tm.index(1, 0), true);
  std::uint8_t top[2], bottom[2];
  act.copy_edge_changed(true, top);
  act.copy_edge_changed(false, bottom);
  EXPECT_EQ(top[0], 0);
  EXPECT_EQ(top[1], 1);
  EXPECT_EQ(bottom[0], 1);
  EXPECT_EQ(bottom[1], 0);
}

// --------------------------------------------------------------- options ---

TEST(StencilOptions, ValidatesQuiesceAgainstConvergence) {
  ps::HeatField f(8, 8);
  ps::HeatOptions opt;
  opt.converge_eps = 1e-4;
  opt.quiesce_eps = 1e-3;  // would hide exactly the residual we wait for
  EXPECT_THROW(ps::heat_relax_plan(f, opt, {}), std::invalid_argument);
  opt.quiesce_eps = -1.0;
  EXPECT_THROW(ps::heat_relax_plan(f, opt, {}), std::invalid_argument);
  // NaN passes both `< 0` and `> converge_eps`, and every `delta > NaN`
  // is false: every tile would be quiet and the run would fake
  // convergence.
  opt.quiesce_eps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ps::heat_relax_plan(f, opt, {}), std::invalid_argument);
  opt.quiesce_eps = 0.0;
  opt.tile_rows = 0;
  EXPECT_THROW(ps::heat_relax_plan(f, opt, {}), std::invalid_argument);
}

// --------------------------------------- Life on the stencil engine ------

using Shape = std::pair<std::size_t, std::size_t>;
constexpr Shape kShapes[] = {{1, 1},  {1, 130}, {17, 1},  {3, 63},
                             {8, 64}, {5, 65},  {33, 29}, {6, 200}};

class LifeSkipEquivalence
    : public ::testing::TestWithParam<std::tuple<pl::Boundary, int>> {};

// Tiny tiles (2 rows x 1 word) on awkward shapes: skipping ON must stay
// bit-identical to the full sweep AND to the byte-grid oracle, on all
// three engines. This is the skip-soundness theorem, exercised.
TEST_P(LifeSkipEquivalence, SkippingIsBitIdenticalAcrossEngines) {
  const auto [boundary, gens] = GetParam();
  pl::EngineOptions skip_on;
  skip_on.tile_rows = 2;
  skip_on.tile_words = 1;
  pl::EngineOptions skip_off = skip_on;
  skip_off.skip_quiescent = false;

  for (const auto& [rows, cols] : kShapes) {
    const pl::Grid start = pl::random_grid(rows, cols, 0.3, 99, boundary);
    pl::Grid oracle = start;
    pl::run_reference(oracle, gens);

    pl::Grid full = start;
    const auto full_res = pl::run_plan(full, gens, {}, skip_off);
    EXPECT_EQ(full, oracle);
    EXPECT_EQ(full_res.tiles_skipped, 0u);

    pl::Grid skip = start;
    pl::run_plan(skip, gens, {}, skip_on);
    EXPECT_EQ(skip, oracle) << rows << "x" << cols;

    pl::Grid thr = start;
    pl::run_plan(thr, gens, {.threads_per_rank = 3}, skip_on);
    EXPECT_EQ(thr, oracle) << rows << "x" << cols;

    if (rows >= 2) {
      pl::Grid msg = start;
      pl::run_message_passing(msg, gens, 2, skip_on);
      EXPECT_EQ(msg, oracle) << rows << "x" << cols;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LifeSkipEquivalence,
    ::testing::Combine(::testing::Values(pl::Boundary::kDead,
                                         pl::Boundary::kTorus),
                       ::testing::Values(1, 3, 8)));

TEST(LifeStencil, SparseBoardActuallySkipsAndStaysExact) {
  // Soup in one corner of an otherwise dead board: most tiles must
  // sleep, and the result must equal the full sweep bit for bit.
  pl::Grid board(128, 256, pl::Boundary::kDead);
  const pl::Grid soup = pl::random_grid(24, 24, 0.4, 5, pl::Boundary::kDead);
  for (std::size_t r = 0; r < 24; ++r)
    for (std::size_t c = 0; c < 24; ++c) board.set(r, c, soup.get(r, c));

  pl::EngineOptions opt;
  opt.tile_rows = 8;
  opt.tile_words = 1;
  pl::Grid skip = board, full = board;
  const auto skip_res = pl::run_plan(skip, 12, {}, opt);
  opt.skip_quiescent = false;
  const auto full_res = pl::run_plan(full, 12, {}, opt);

  EXPECT_EQ(skip, full);
  EXPECT_EQ(full_res.tiles_skipped, 0u);
  EXPECT_GT(skip_res.tiles_skipped, skip_res.tiles_computed)
      << "sparse board should skip the majority of tiles";
  EXPECT_EQ(skip_res.tiles_computed + skip_res.tiles_skipped,
            full_res.tiles_computed);
}

TEST(LifeStencil, MessagePassingHaloWordsAreExact) {
  // 256 columns = 4 payload words, tiles_x = 2 -> 1 flag word; 2 ranks x
  // 2 messages x gens.
  pl::Grid board = pl::random_grid(64, 256, 0.3, 21);
  pl::EngineOptions opt;
  opt.tile_rows = 16;
  opt.tile_words = 2;
  const int gens = 7;
  const auto res = pl::run_message_passing(board, gens, 2, opt);
  EXPECT_EQ(res.halo_words,
            static_cast<std::uint64_t>(2 * 2 * gens) * (4u + 1u));
  EXPECT_EQ(res.steps, static_cast<std::uint64_t>(gens));
}

// ----------------------------------------------------------------- heat ---

namespace {

ps::HeatField hot_top(std::size_t rows, std::size_t cols) {
  ps::HeatField f(rows, cols, 0.0f);
  f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
  return f;
}

}  // namespace

TEST(Heat, SequentialConvergesAndHeatFlowsDownward) {
  ps::HeatField f = hot_top(32, 32);
  ps::HeatOptions opt;
  opt.converge_eps = 1e-3;
  const ps::RunResult res = ps::heat_relax_plan(f, opt, {});
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.steps, 1u);
  EXPECT_LE(res.last_delta, 1e-3);
  // Monotone temperature profile away from the hot edge.
  EXPECT_GT(f.at(0, 16), f.at(8, 16));
  EXPECT_GT(f.at(8, 16), f.at(31, 16));
  EXPECT_GT(f.at(31, 16), 0.0f);  // warmth reached the far edge
}

// ---------------------------------------------------------- heat kernel ---

namespace {

/// The heat.hpp formula one cell at a time, in the scalar operation order
/// next = cur + k * (0.25 * (((up + down) + left) + right) - cur): the
/// reference HeatWorkload::step_tile must reproduce bit for bit.
double reference_step_tile(const ps::HeatField& src, ps::HeatField& dst,
                           const ps::TileBounds& b, double conductivity) {
  const float k = static_cast<float>(conductivity);
  float max_d = 0.0f;
  for (std::size_t r = b.r0; r < b.r1; ++r)
    for (std::size_t c = b.c0; c < b.c1; ++c) {
      const auto ri = static_cast<std::ptrdiff_t>(r);
      const auto ci = static_cast<std::ptrdiff_t>(c);
      const float cur = src.at(ri, ci);
      const float up = src.at(ri - 1, ci), down = src.at(ri + 1, ci);
      const float left = src.at(ri, ci - 1), right = src.at(ri, ci + 1);
      const float avg = 0.25f * (((up + down) + left) + right);
      const float next = cur + k * (avg - cur);
      dst.at(ri, ci) = next;
      max_d = std::max(max_d, std::fabs(next - cur));
    }
  return static_cast<double>(max_d);
}

/// Normal values of both signs, subnormals, signed zeros and the smallest
/// normals, under a non-zero Dirichlet ring.
ps::HeatField mixed_field(std::size_t rows, std::size_t cols) {
  const float kinds[] = {0.75f,   -0.3f,   1e-39f,  -2e-41f, 0.0f, -0.0f,
                         1.2e-38f, 1e-45f, 0.0625f, 3.0f};
  ps::HeatField f(rows, cols);
  f.set_boundary(1.0f, 0.5f, -0.25f, 2e-39f);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      f.at(static_cast<std::ptrdiff_t>(r), static_cast<std::ptrdiff_t>(c)) =
          kinds[x % std::size(kinds)];
    }
  return f;
}

bool same_bytes(const ps::HeatField& a, const ps::HeatField& b) {
  const std::size_t n = (a.rows() + 2) * (a.cols() + 2);
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(&a.at(-1, -1), &b.at(-1, -1), n * sizeof(float)) == 0;
}

std::size_t subnormal_cells(const ps::HeatField& f) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < f.rows(); ++r)
    for (std::size_t c = 0; c < f.cols(); ++c)
      n += std::fpclassify(f.at(static_cast<std::ptrdiff_t>(r),
                                static_cast<std::ptrdiff_t>(c))) ==
           FP_SUBNORMAL;
  return n;
}

/// "16 32 64": the widths a test ran, for RecordProperty.
std::string width_list(std::span<const std::size_t> widths) {
  std::string s;
  for (const std::size_t w : widths)
    s += (s.empty() ? "" : " ") + std::to_string(w);
  return s;
}

}  // namespace

// At every vector width this CPU runs, and through the public step_tile:
// tile widths 1-17 and 61-67 (every tail each width steps down through),
// tiles off the left edge, tiles ending at cols, on a field mixing
// normals, subnormals and zeros; then a multi-step run whose cold front
// relaxes into subnormals. Destination buffers (the ring and cells
// outside the tile included) are compared byte for byte.
TEST(HeatKernel, StepTileMatchesPerCellFormulaBitForBit) {
  const auto widths = ps::vector_widths();
  RecordProperty("vector_widths", width_list(widths));
  ASSERT_EQ(widths.front(), 16u);
  EXPECT_TRUE(std::is_sorted(widths.begin(), widths.end()));

  constexpr std::size_t kRows = 11, kCols = 80;
  const ps::HeatField src = mixed_field(kRows, kCols);
  std::vector<std::size_t> tile_widths;
  for (std::size_t wd = 1; wd <= 17; ++wd) tile_widths.push_back(wd);
  for (std::size_t wd = 61; wd <= 67; ++wd) tile_widths.push_back(wd);
  for (const double k : {0.25, 0.2}) {
    const ps::HeatWorkload w{k};
    for (const std::size_t wd : tile_widths)
      for (const std::size_t c0 : {std::size_t{0}, std::size_t{3},
                                   kCols - wd})
        for (const std::size_t r0 : {std::size_t{0}, std::size_t{4}}) {
          const std::size_t r1 = r0 == 0 ? kRows : 7;
          const ps::TileBounds b{r0, r1, c0, c0 + wd};
          ps::HeatField want = src;
          const double want_d = reference_step_tile(src, want, b, k);
          const std::string at = "k=" + std::to_string(k) +
                                 " rows [" + std::to_string(r0) + "," +
                                 std::to_string(r1) + ") cols [" +
                                 std::to_string(c0) + "," +
                                 std::to_string(c0 + wd) + ")";
          ps::HeatField got = src;
          EXPECT_EQ(w.step_tile(src, got, b), want_d) << at;
          EXPECT_TRUE(same_bytes(got, want)) << at;
          for (const std::size_t bytes : widths) {
            got = src;
            EXPECT_EQ(ps::detail::heat_step_tile(bytes, w, src, got, b),
                      want_d)
                << bytes << " bytes, " << at;
            EXPECT_TRUE(same_bytes(got, want)) << bytes << " bytes, " << at;
          }
        }
  }
  EXPECT_EQ(obs::gauge("stencil.heat_kernel_lanes").value(),
            static_cast<std::int64_t>(widths.back() / sizeof(float)));

  // Many steps from a hot top edge: the cold front fills with subnormals.
  constexpr std::size_t kTall = 96, kWide = 70;  // 70 % 16 == 6
  const ps::HeatWorkload w{0.25};
  const ps::TileBounds all{0, kTall, 0, kWide};
  for (const std::size_t bytes : widths) {
    ps::HeatField want_cur = hot_top(kTall, kWide), want_nxt = want_cur;
    ps::HeatField got_cur = want_cur, got_nxt = want_cur;
    std::size_t max_subnormal = 0;
    for (int step = 0; step < 150; ++step) {
      const double want_d =
          reference_step_tile(want_cur, want_nxt, all, 0.25);
      const double got_d =
          ps::detail::heat_step_tile(bytes, w, got_cur, got_nxt, all);
      ASSERT_TRUE(same_bytes(got_nxt, want_nxt))
          << bytes << " bytes, step " << step;
      ASSERT_EQ(got_d, want_d) << bytes << " bytes, step " << step;
      std::swap(want_cur, want_nxt);
      std::swap(got_cur, got_nxt);
      max_subnormal = std::max(max_subnormal, subnormal_cells(got_cur));
    }
    EXPECT_GT(max_subnormal, 0u);
  }

  // A width this CPU does not run is refused, not executed.
  ps::HeatField got = src;
  for (const std::size_t bytes : {0, 8, 128})
    EXPECT_THROW(ps::detail::heat_step_tile(bytes, w, src, got,
                                            {0, kRows, 0, kCols}),
                 std::invalid_argument);
}

class HeatEngineIdentity : public ::testing::TestWithParam<double> {};

// The acceptance criterion: identical iteration counts (and residual,
// and field) on sequential, threaded, and message-passing engines — both
// with the exact dirty predicate and with a residual-based one.
TEST_P(HeatEngineIdentity, AllEnginesAgreeOnStepsResidualAndField) {
  const double quiesce = GetParam();
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-4;
  opt.quiesce_eps = quiesce;
  opt.tile_rows = 16;
  opt.tile_cols = 32;

  ps::HeatField seq = hot_top(64, 96);
  const ps::RunResult rs = ps::heat_relax_plan(seq, opt, {});
  EXPECT_TRUE(rs.converged);

  ps::HeatField thr = hot_top(64, 96);
  const ps::RunResult rt =
      ps::heat_relax_plan(thr, opt, {.threads_per_rank = 4});
  EXPECT_EQ(rt.steps, rs.steps);
  EXPECT_EQ(rt.last_delta, rs.last_delta);
  EXPECT_EQ(rt.tiles_computed, rs.tiles_computed);
  EXPECT_TRUE(thr == seq);

  for (const int ranks : {1, 2, 4}) {
    ps::HeatField mp = hot_top(64, 96);
    const ps::RunResult rm = ps::heat_relax_mp(mp, opt, ranks);
    EXPECT_EQ(rm.steps, rs.steps) << "ranks=" << ranks;
    EXPECT_EQ(rm.last_delta, rs.last_delta) << "ranks=" << ranks;
    EXPECT_EQ(rm.tiles_computed, rs.tiles_computed) << "ranks=" << ranks;
    EXPECT_TRUE(mp == seq) << "ranks=" << ranks;
  }
}

INSTANTIATE_TEST_SUITE_P(ExactAndResidual, HeatEngineIdentity,
                         ::testing::Values(0.0, 1e-6));

TEST(Heat, SkippingExactPredicateMatchesFullSweep) {
  ps::HeatOptions opt;
  opt.converge_eps = 1e-4;
  opt.tile_rows = 8;
  opt.tile_cols = 16;
  ps::HeatField skip = hot_top(48, 64);
  const ps::RunResult rs = ps::heat_relax_plan(skip, opt, {});
  opt.skip_quiescent = false;
  ps::HeatField full = hot_top(48, 64);
  const ps::RunResult rf = ps::heat_relax_plan(full, opt, {});
  EXPECT_TRUE(skip == full);
  EXPECT_EQ(rs.steps, rf.steps);
  EXPECT_EQ(rs.last_delta, rf.last_delta);
  EXPECT_GT(rs.tiles_skipped, 0u);
  EXPECT_EQ(rf.tiles_skipped, 0u);
}

TEST(Heat, ResidualPredicateStaysCloseToExact) {
  ps::HeatOptions opt;
  opt.converge_eps = 1e-3;
  ps::HeatField exact = hot_top(48, 48);
  ps::heat_relax_plan(exact, opt, {});
  opt.quiesce_eps = 1e-4;  // aggressive sleeping, bounded deviation
  ps::HeatField lazy = hot_top(48, 48);
  const ps::RunResult res = ps::heat_relax_plan(lazy, opt, {});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(exact.max_abs_diff(lazy), 0.05);
}

TEST(Heat, MpHaloWordsAreExact) {
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-4;
  opt.tile_rows = 16;
  opt.tile_cols = 32;
  ps::HeatField f = hot_top(64, 96);
  const ps::RunResult res = ps::heat_relax_mp(f, opt, 2);
  // 2 ranks, each with one neighbor: 2 messages per step, each 1 flag
  // word + ceil(96/2) packed float words.
  EXPECT_EQ(res.halo_words, res.steps * 2u * (1u + 48u));
}

// ------------------------------------------------------- tile stealing ---

// Acceptance criterion for the work-stealing engine: tile stealing
// changes only who computes a tile. Grids stay bit-identical to the
// sequential engine and the updated-tile accounting is *exactly*
// unchanged, for every thread count 1..8.
TEST(TileStealing, LifeGridsBitIdenticalAndTileCountsExact1To8Threads) {
  // Clustered sparse board — all live tiles in one corner, so each
  // step's active list is short and workers run dry and steal.
  pl::Grid board(128, 256, pl::Boundary::kDead);
  const pl::Grid soup = pl::random_grid(24, 24, 0.4, 7, pl::Boundary::kDead);
  for (std::size_t r = 0; r < 24; ++r)
    for (std::size_t c = 0; c < 24; ++c) board.set(r, c, soup.get(r, c));

  const int gens = 10;
  pl::EngineOptions opt;
  opt.tile_rows = 8;
  opt.tile_words = 1;

  pl::Grid seq_g = board;
  const auto seq = pl::run_plan(seq_g, gens, {}, opt);

  for (int threads = 1; threads <= 8; ++threads) {
    const ps::ExecPlan plan{.threads_per_rank = threads};
    pl::Grid g = board;
    const auto res = pl::run_plan(g, gens, plan, opt);
    EXPECT_EQ(g, seq_g) << "threads=" << threads;
    EXPECT_EQ(res.tiles_computed, seq.tiles_computed)
        << "threads=" << threads;
    EXPECT_EQ(res.tiles_skipped, seq.tiles_skipped) << "threads=" << threads;
    EXPECT_EQ(res.steps, seq.steps);
  }
}

TEST(TileStealing, HeatStealingMatchesSequentialExactly1To8Threads) {
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-4;
  opt.tile_rows = 16;
  opt.tile_cols = 32;

  ps::HeatField seq = hot_top(64, 96);
  const ps::RunResult rs = ps::heat_relax_plan(seq, opt, {});
  EXPECT_TRUE(rs.converged);

  for (int threads = 1; threads <= 8; ++threads) {
    const ps::ExecPlan plan{.threads_per_rank = threads};
    ps::HeatField thr = hot_top(64, 96);
    const ps::RunResult rt = ps::heat_relax_plan(thr, opt, plan);
    EXPECT_EQ(rt.steps, rs.steps) << "threads=" << threads;
    EXPECT_EQ(rt.last_delta, rs.last_delta) << "threads=" << threads;
    EXPECT_EQ(rt.tiles_computed, rs.tiles_computed) << "threads=" << threads;
    EXPECT_EQ(rt.tiles_skipped, rs.tiles_skipped);
    EXPECT_TRUE(thr == seq) << "threads=" << threads;
  }
}

// ------------------------------------------------- hybrid ExecPlan ------

// run_message_passing is plan {R,1} through the world path: for R > 1 it
// is run_plan on {R,1} — same grids, same accounting, same wire words,
// byte for byte. (For one rank they differ on purpose: run_plan stays
// local, run_message_passing still launches a world.)
TEST(HybridPlan, MessagePassingMatchesTwoRankPlan) {
  const pl::Grid start = pl::random_grid(48, 96, 0.3, 11);
  pl::EngineOptions opt;
  opt.tile_rows = 8;
  opt.tile_words = 1;
  const int gens = 6;

  pl::Grid msg = start;
  std::uint64_t msg_msgs = 0, msg_words = 0;
  const auto msg_res =
      pl::run_message_passing(msg, gens, 2, opt, &msg_msgs, &msg_words);
  pl::Grid p21 = start;
  std::uint64_t plan_msgs = 0, plan_words = 0;
  const auto p21_res = pl::run_plan(p21, gens, ps::ExecPlan{.ranks = 2}, opt,
                                    &plan_msgs, &plan_words);
  EXPECT_EQ(msg, p21);
  EXPECT_EQ(msg_res.steps, p21_res.steps);
  EXPECT_EQ(msg_res.tiles_computed, p21_res.tiles_computed);
  EXPECT_EQ(msg_res.tiles_skipped, p21_res.tiles_skipped);
  EXPECT_EQ(msg_res.halo_words, p21_res.halo_words);
  EXPECT_EQ(msg_msgs, plan_msgs);
  EXPECT_EQ(msg_words, plan_words);
}

// The hybrid equivalence theorem, exercised: every plan shape {R,T},
// over the same awkward shapes the engine sweep uses, produces grids
// bit-identical to the sequential oracle. Tile accounting matches
// whenever the strip partition keeps the global tile grid (rows/ranks
// >= tile_rows); narrower strips shrink the tile height, which changes
// the counts but never the cells.
TEST(HybridPlan, LifeBitIdenticalToSeqOracleAcrossPlanMatrix) {
  pl::EngineOptions opt;
  opt.tile_rows = 2;
  opt.tile_words = 1;
  const int gens = 4;
  // Each rank's team is a region running alongside the other ranks'; the
  // pool serves them all, so no plan forks a thread per region.
  obs::Counter& forked = obs::counter("core.regions.forked");
  const std::uint64_t forked_before = forked.value();

  for (const auto& [rows, cols] : kShapes) {
    const pl::Grid start =
        pl::random_grid(rows, cols, 0.3, 77, pl::Boundary::kTorus);
    pl::Grid seq_g = start;
    const auto seq = pl::run_plan(seq_g, gens, {}, opt);

    for (const int ranks : {1, 2, 4}) {
      if (static_cast<std::size_t>(ranks) > rows) continue;
      for (const int threads : {1, 2, 4}) {
        const ps::ExecPlan plan{.ranks = ranks, .threads_per_rank = threads};
        const std::string tag = std::to_string(rows) + "x" +
                                std::to_string(cols) + " plan{" +
                                std::to_string(ranks) + "," +
                                std::to_string(threads) + "}";
        pl::Grid g = start;
        const auto res = pl::run_plan(g, gens, plan, opt);
        EXPECT_EQ(g, seq_g) << tag;
        EXPECT_EQ(res.steps, seq.steps) << tag;
        if (rows / static_cast<std::size_t>(ranks) >= opt.tile_rows) {
          EXPECT_EQ(res.tiles_computed, seq.tiles_computed) << tag;
          EXPECT_EQ(res.tiles_skipped, seq.tiles_skipped) << tag;
        }
      }
    }
  }
  EXPECT_EQ(forked.value(), forked_before);
}

// Same matrix for the float workload: fields, step counts, and the
// converged residual (a bit-exact double, thanks to the bit_cast kMax
// allreduce) must all match the sequential oracle.
TEST(HybridPlan, HeatBitIdenticalToSeqOracleAcrossPlanMatrix) {
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-3;
  opt.tile_rows = 4;
  opt.tile_cols = 16;
  opt.max_steps = 400;

  constexpr std::pair<std::size_t, std::size_t> kFields[] = {{24, 20},
                                                             {33, 17}};
  for (const auto& [rows, cols] : kFields) {
    ps::HeatField seq = hot_top(rows, cols);
    const ps::RunResult rs = ps::heat_relax_plan(seq, opt, {});
    EXPECT_TRUE(rs.converged);

    for (const int ranks : {1, 2, 4}) {
      for (const int threads : {1, 2, 4}) {
        const ps::ExecPlan plan{.ranks = ranks, .threads_per_rank = threads};
        const std::string tag = std::to_string(rows) + "x" +
                                std::to_string(cols) + " plan{" +
                                std::to_string(ranks) + "," +
                                std::to_string(threads) + "}";
        ps::HeatField f = hot_top(rows, cols);
        const ps::RunResult rt = ps::heat_relax_plan(f, opt, plan);
        EXPECT_TRUE(f == seq) << tag;
        EXPECT_EQ(rt.steps, rs.steps) << tag;
        EXPECT_EQ(rt.last_delta, rs.last_delta) << tag;
        EXPECT_TRUE(rt.converged) << tag;
        if (rows / static_cast<std::size_t>(ranks) >= opt.tile_rows) {
          EXPECT_EQ(rt.tiles_computed, rs.tiles_computed) << tag;
          EXPECT_EQ(rt.tiles_skipped, rs.tiles_skipped) << tag;
        }
      }
    }
  }
}

TEST(HybridPlan, ValidatesPlanShape) {
  pl::Grid g = pl::random_grid(8, 8, 0.3, 1);
  EXPECT_THROW(pl::run_plan(g, 1, ps::ExecPlan{.ranks = 0}),
               std::invalid_argument);
  EXPECT_THROW(pl::run_plan(g, 1, ps::ExecPlan{.threads_per_rank = 0}),
               std::invalid_argument);
  ps::HeatField f = hot_top(8, 8);
  ps::HeatOptions hopt;
  EXPECT_THROW(ps::heat_relax_plan(f, hopt, ps::ExecPlan{.ranks = 0}),
               std::invalid_argument);
}

// A multi-rank run reports the global max delta, not rank 0's: the only
// live cells (a blinker) sit in rank 1's strip, so rank 0's own last
// delta is 0 while the board still changes every generation.
TEST(HybridPlan, LifeLastDeltaIsTheMaxOverRanks) {
  pl::Grid start(64, 64, pl::Boundary::kDead);
  pl::stamp(start, pl::blinker(pl::Boundary::kDead), 41, 10);
  const int gens = 3;
  pl::Grid seq = start;
  const ps::RunResult rs = pl::run_plan(seq, gens, {});
  ASSERT_EQ(rs.last_delta, 1.0);
  for (const int threads : {1, 2}) {
    const ps::ExecPlan plan{.ranks = 2, .threads_per_rank = threads};
    pl::Grid g = start;
    const ps::RunResult r = pl::run_plan(g, gens, plan);
    EXPECT_EQ(g, seq) << "threads " << threads;
    EXPECT_EQ(r.last_delta, rs.last_delta) << "threads " << threads;
  }
}

// The engine writes every tile of `cur`'s grid into `nxt`, so a scratch
// buffer of another shape is refused before anything is touched.
TEST(StencilEngine, RejectsScratchOfAnotherShape) {
  ps::Options opt;
  opt.tile_rows = 16;
  opt.tile_cols = 16;
  ps::HeatWorkload w;
  const ps::HeatField start = hot_top(64, 64);
  for (const int threads : {1, 2}) {
    const ps::ExecPlan plan{.threads_per_rank = threads};
    ps::HeatField cur = start;
    ps::HeatField nxt = hot_top(8, 8);
    EXPECT_THROW(ps::run(w, cur, nxt, plan, opt), std::invalid_argument);
    EXPECT_TRUE(cur == start);
  }
  // The strip overload, inside a one-rank world.
  ps::HeatField cur = start;
  ps::HeatField nxt = hot_top(64, 65);
  const auto strip_run = [&](mp::RankContext& ctx) {
    ps::run(w, cur, nxt, ps::ExecPlan{}, opt, ctx, ps::MpLinks{});
  };
  mp::Communicator comm(1);
  EXPECT_THROW(comm.run(strip_run), std::invalid_argument);
}

// Where a strip rank waits for its halo under the default kOverlap
// schedule, one thread per rank or a team: inside the step span, never
// in the serial section between steps and never in the convergence
// allreduce. perfbench's mp.recv_wait_us_per_step reads exactly these
// receives (mp.recv nested in heat.step, outside mp.allreduce).
TEST(HybridPlan, HaloReceiveLiesInsideTheStepSpan) {
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-2;
  opt.tile_rows = 4;
  opt.tile_cols = 8;
  using Span = std::pair<std::int64_t, std::int64_t>;  // [start, end]
  const auto inside = [](const std::vector<Span>& outer, const Span& s) {
    return std::any_of(outer.begin(), outer.end(), [&](const Span& o) {
      return o.first <= s.first && s.second <= o.second;
    });
  };
  for (const int threads : {1, 2}) {
    const ps::ExecPlan plan{.ranks = 2, .threads_per_rank = threads};
    ps::HeatField f = hot_top(16, 16);
    obs::clear_trace();
    obs::set_tracing_enabled(true);
    const ps::RunResult res = ps::heat_relax_plan(f, opt, plan);
    obs::set_tracing_enabled(false);
    ASSERT_GT(res.steps, 1u);
    std::uint64_t halo_recvs = 0, outside_step = 0;
    for (const auto& t : obs::trace_threads()) {
      EXPECT_EQ(t.dropped, 0u);
      std::vector<Span> steps, collectives, recvs;
      for (const auto& e : t.events) {
        const Span s{e.start_ns, e.start_ns + e.dur_ns};
        if (std::strcmp(e.name, "heat.step") == 0) steps.push_back(s);
        if (std::strcmp(e.name, "mp.recv") == 0) recvs.push_back(s);
        if (std::strcmp(e.name, "mp.allreduce") == 0 ||
            std::strcmp(e.name, "mp.barrier") == 0)
          collectives.push_back(s);
      }
      for (const Span& r : recvs) {
        if (inside(collectives, r)) continue;  // a collective's own receive
        ++halo_recvs;
        if (!inside(steps, r)) ++outside_step;
      }
    }
    // Two ranks, one neighbor each: one halo receive per rank per step.
    EXPECT_EQ(halo_recvs, 2 * res.steps) << "threads " << threads;
    EXPECT_EQ(outside_step, 0u) << "threads " << threads;
  }
  obs::clear_trace();
}

// ------------------------------------------- funneled threading mode ---

// The mp::Threading contract the hybrid engine relies on: once a rank
// enters kFunneled mode, communication from any thread other than the
// designated one is a deterministic std::logic_error, not a silent
// mailbox race.
TEST(MpThreading, FunneledModeRejectsCommFromForeignThreads) {
  mp::Communicator comm(2);
  comm.run([](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_threading(mp::Threading::kFunneled);
      EXPECT_EQ(ctx.threading(), mp::Threading::kFunneled);
      ctx.send_value(1, 0, 42);  // the designated thread may still talk
      bool threw = false;
      std::thread foreign([&] {
        try {
          ctx.send_value(1, 1, -1);  // must never reach the wire
        } catch (const std::logic_error&) {
          threw = true;
        }
      });
      foreign.join();
      EXPECT_TRUE(threw) << "off-thread send in kFunneled mode must throw";
      // Dropping back to kSingle re-pins the comm thread to the caller.
      ctx.set_threading(mp::Threading::kSingle);
      ctx.send_value(1, 1, 43);
    } else {
      EXPECT_EQ(ctx.recv_value(0, 0), 42);
      EXPECT_EQ(ctx.recv_value(0, 1), 43);
    }
  });
}

TEST(Heat, ValidatesArguments) {
  EXPECT_THROW(ps::HeatField(0, 4), std::invalid_argument);
  // (2^63 + 2) x 4 padded cells wrap to 8; rejected before allocating.
  EXPECT_THROW(ps::HeatField(std::size_t{1} << 63, 2), std::invalid_argument);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(ps::HeatField(4, 4, kInf), std::invalid_argument);
  EXPECT_THROW(ps::HeatField(4, 4, -kInf), std::invalid_argument);
  EXPECT_THROW(ps::HeatField(4, 4, kNaN), std::invalid_argument);
  // A non-finite boundary would relax to a false "converged": NaN deltas
  // lose every max and mark their tiles quiescent.
  ps::HeatField g(16, 16);
  EXPECT_THROW(g.set_boundary(kInf, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(g.set_boundary(0, -kInf, 0, 0), std::invalid_argument);
  EXPECT_THROW(g.set_boundary(0, 0, kNaN, 0), std::invalid_argument);
  EXPECT_THROW(g.set_boundary(0, 0, 0, kNaN), std::invalid_argument);
  EXPECT_TRUE(g == ps::HeatField(16, 16));  // rejected before any write
  ps::HeatField f = hot_top(8, 8);
  ps::HeatOptions opt;
  EXPECT_THROW(ps::heat_relax_plan(f, opt, {.threads_per_rank = 0}),
               std::invalid_argument);
  EXPECT_THROW(ps::heat_relax_mp(f, opt, 0), std::invalid_argument);
  EXPECT_THROW(ps::heat_relax_mp(f, opt, 9), std::invalid_argument);
  // The update is stable only for 0 < k <= 1; outside it every plan
  // relaxed to non-finite cells (or, at k = 0, not at all) and still
  // reported "converged". Rejected on every entry point, before any
  // write.
  const ps::HeatField before = f;
  for (const double k : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 3.0, 1.5,
                         -0.5, 0.0}) {
    opt.conductivity = k;
    EXPECT_THROW(ps::heat_relax_plan(f, opt, {}), std::invalid_argument)
        << "k=" << k;
    EXPECT_THROW(ps::heat_relax_plan(f, opt, {.ranks = 2}),
                 std::invalid_argument)
        << "k=" << k;
    EXPECT_THROW(ps::heat_relax_mp(f, opt, 1), std::invalid_argument)
        << "k=" << k;
  }
  EXPECT_TRUE(f == before);
  opt.conductivity = 1.0;  // the closed end of the range is legal
  EXPECT_NO_THROW(ps::heat_relax_plan(f, opt, {}));
}
