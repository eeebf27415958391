// Tests for pdc::life — grid rules, patterns, and the cross-engine
// equivalence property: sequential, threaded and message-passing engines
// must produce bit-identical boards.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <new>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pdc/core/zeroed_buffer.hpp"
#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/life/packed_grid.hpp"
#include "pdc/obs/metrics.hpp"
#include "pdc/stencil/vector_width.hpp"

namespace pl = pdc::life;

// ----------------------------------------------------------------- rules ---

TEST(Grid, ConstructionAndBounds) {
  pl::Grid g(4, 6);
  EXPECT_EQ(g.rows(), 4u);
  EXPECT_EQ(g.cols(), 6u);
  EXPECT_EQ(g.population(), 0u);
  EXPECT_THROW((void)g.get(4, 0), std::out_of_range);
  EXPECT_THROW(g.set(0, 6, true), std::out_of_range);
  EXPECT_THROW(pl::Grid(0, 5), std::invalid_argument);
  // 2^32 x 2^32 cells wrap to a 0-byte board; rejected before allocating.
  EXPECT_THROW(pl::Grid(std::size_t{1} << 32, std::size_t{1} << 32),
               std::invalid_argument);
  // SIZE_MAX cells fit in size_t, but rounding them up to whole huge
  // pages would wrap; 2^48 cells (256 TiB) fit but cannot be mapped.
  EXPECT_THROW(pl::Grid(3, std::numeric_limits<std::size_t>::max() / 3),
               std::bad_alloc);
  EXPECT_THROW(pl::Grid(std::size_t{1} << 24, std::size_t{1} << 24),
               std::bad_alloc);
}

// A fresh board is zero without being written: its pages are first
// touched by its fill, not also by the constructor. mincore reports the
// 4 MiB board's pages as not resident until something touches them.
TEST(Grid, FreshBoardLeavesItsPagesUntouched) {
  const pl::Grid g(2048, 2048);
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<std::uintptr_t>(g.row_data(0));
  const std::uintptr_t first = addr & ~(page - 1);
  const std::size_t len = addr - first + std::size_t{2048} * 2048;
  std::vector<unsigned char> resident((len + page - 1) / page);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(first), len, resident.data()), 0);
  EXPECT_EQ(std::count_if(resident.begin(), resident.end(),
                          [](unsigned char v) { return (v & 1) != 0; }),
            0);
  EXPECT_EQ(g.population(), 0u);
}

TEST(Grid, NeighborCountBounded) {
  pl::Grid g(3, 3, pl::Boundary::kDead);
  g.set(0, 0, true);
  g.set(0, 1, true);
  g.set(1, 0, true);
  EXPECT_EQ(g.live_neighbors(0, 0), 2);  // corner: no wrap
  EXPECT_EQ(g.live_neighbors(1, 1), 3);
  EXPECT_EQ(g.live_neighbors(2, 2), 0);
}

TEST(Grid, NeighborCountTorus) {
  pl::Grid g(3, 3, pl::Boundary::kTorus);
  g.set(0, 0, true);
  // On a torus, (2,2) is diagonal to (0,0).
  EXPECT_EQ(g.live_neighbors(2, 2), 1);
  EXPECT_EQ(g.live_neighbors(1, 1), 1);
}

TEST(Grid, B3S23Rule) {
  pl::Grid g(5, 5, pl::Boundary::kDead);
  // Live cell with 2 or 3 neighbors survives; dead with 3 is born.
  g.set(2, 1, true);
  g.set(2, 2, true);
  g.set(2, 3, true);
  EXPECT_TRUE(g.next_state(2, 2));   // 2 neighbors: survives
  EXPECT_FALSE(g.next_state(2, 1));  // 1 neighbor: dies
  EXPECT_TRUE(g.next_state(1, 2));   // 3 neighbors: born
  EXPECT_FALSE(g.next_state(0, 0));  // empty space stays dead
}

TEST(Patterns, BlinkerOscillatesWithPeriod2) {
  pl::Grid board(5, 5, pl::Boundary::kDead);
  pl::stamp(board, pl::blinker(), 2, 1);
  const pl::Grid start = board;
  pl::run_plan(board, 1, {});
  EXPECT_NE(board, start);  // vertical now
  pl::run_plan(board, 1, {});
  EXPECT_EQ(board, start);  // back to horizontal
}

TEST(Patterns, BlockIsStill) {
  pl::Grid board(6, 6, pl::Boundary::kDead);
  pl::stamp(board, pl::block(), 2, 2);
  const pl::Grid start = board;
  pl::run_plan(board, 10, {});
  EXPECT_EQ(board, start);
}

TEST(Patterns, GliderTranslatesByOneCellEvery4Generations) {
  pl::Grid board(16, 16, pl::Boundary::kTorus);
  pl::stamp(board, pl::glider(), 2, 2);
  pl::Grid moved(16, 16, pl::Boundary::kTorus);
  pl::stamp(moved, pl::glider(), 3, 3);  // one down-right
  pl::run_plan(board, 4, {});
  EXPECT_EQ(board, moved);
  EXPECT_EQ(board.population(), 5u);  // gliders preserve population
}

TEST(Patterns, GliderWrapsAroundTorus) {
  pl::Grid board(8, 8, pl::Boundary::kTorus);
  pl::stamp(board, pl::glider(), 0, 0);
  const std::size_t pop = board.population();
  pl::run_plan(board, 8 * 4, {});  // full loop around the torus
  EXPECT_EQ(board.population(), pop);
}

TEST(Grid, ParsePlaintextRoundTrip) {
  const std::string text = ".O.\n..O\nOOO\n";
  const pl::Grid g = pl::parse_plaintext(text);
  EXPECT_EQ(g.to_string(), text);
  EXPECT_EQ(g.population(), 5u);
  EXPECT_THROW((void)pl::parse_plaintext(""), std::invalid_argument);
  EXPECT_THROW((void)pl::parse_plaintext("x"), std::invalid_argument);
}

TEST(Grid, StampBoundsChecked) {
  pl::Grid board(4, 4);
  EXPECT_THROW(pl::stamp(board, pl::glider(), 2, 2), std::out_of_range);
}

TEST(Grid, RandomGridDeterministicDensity) {
  const auto a = pl::random_grid(50, 50, 0.3, 9);
  const auto b = pl::random_grid(50, 50, 0.3, 9);
  EXPECT_EQ(a, b);
  const double density =
      static_cast<double>(a.population()) / (50.0 * 50.0);
  EXPECT_NEAR(density, 0.3, 0.05);
  EXPECT_THROW((void)pl::random_grid(5, 5, 1.5, 1), std::invalid_argument);
}

// ----------------------------------------------- engine equivalence sweep ---

class EngineEquivalence
    : public ::testing::TestWithParam<
          std::tuple<pl::Boundary, int /*workers*/, int /*gens*/>> {};

TEST_P(EngineEquivalence, ThreadedMatchesSequential) {
  const auto [boundary, workers, gens] = GetParam();
  pl::Grid seq = pl::random_grid(33, 29, 0.35, 1234, boundary);
  pl::Grid thr = seq;
  pl::run_plan(seq, gens, {});
  pl::run_plan(thr, gens, {.threads_per_rank = workers});
  EXPECT_EQ(seq, thr) << "boundary=" << static_cast<int>(boundary)
                      << " workers=" << workers << " gens=" << gens;
}

TEST_P(EngineEquivalence, MessagePassingMatchesSequential) {
  const auto [boundary, workers, gens] = GetParam();
  pl::Grid seq = pl::random_grid(33, 29, 0.35, 1234, boundary);
  pl::Grid msg = seq;
  pl::run_plan(seq, gens, {});
  pl::run_message_passing(msg, gens, workers);
  EXPECT_EQ(seq, msg) << "boundary=" << static_cast<int>(boundary)
                      << " workers=" << workers << " gens=" << gens;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Combine(::testing::Values(pl::Boundary::kDead,
                                         pl::Boundary::kTorus),
                       ::testing::Values(1, 2, 3, 5),
                       ::testing::Values(0, 1, 7)));

TEST(Engines, ValidateArguments) {
  pl::Grid g(4, 4);
  EXPECT_THROW(pl::run_plan(g, -1, {}), std::invalid_argument);
  EXPECT_THROW(pl::run_plan(g, 1, {.threads_per_rank = 0}),
               std::invalid_argument);
  EXPECT_THROW(pl::run_message_passing(g, 1, 0), std::invalid_argument);
  EXPECT_THROW(pl::run_message_passing(g, 1, 10), std::invalid_argument);
}

TEST(Engines, MessagePassingTrafficScalesWithRanksAndGenerations) {
  pl::Grid a = pl::random_grid(32, 32, 0.3, 5);
  pl::Grid b = a;
  std::uint64_t msgs2 = 0, msgs4 = 0, words2 = 0, words4 = 0;
  pl::run_message_passing(a, 10, 2, {}, &msgs2, &words2);
  pl::run_message_passing(b, 10, 4, {}, &msgs4, &words4);
  // Torus halo exchange: 2 messages per rank per generation, plus the
  // final barrier's 2*(p-1) empty messages.
  EXPECT_EQ(msgs2, 2u * 2u * 10u + 2u);
  EXPECT_EQ(msgs4, 4u * 2u * 10u + 6u);
  // Each halo message carries one activity flag word plus one row packed
  // 64 cells/word: 32 columns fit in a single payload word (barrier msgs
  // are empty).
  EXPECT_EQ(words2, 2u * 2u * 10u * (1u + 1u));
  EXPECT_EQ(words4, 4u * 2u * 10u * (1u + 1u));
}

TEST(Engines, PackedWireFormatCutsPayload64xVsByteFormat) {
  // 1024 columns = 16 payload words per halo row, plus one activity flag
  // word per message. The old wire format moved one int64 per cell, so
  // the packed *cell payload* is exactly 64x denser.
  pl::Grid board = pl::random_grid(16, 1024, 0.3, 11);
  const int gens = 5, ranks = 4;
  std::uint64_t msgs = 0, words = 0;
  pl::run_message_passing(board, gens, ranks, {}, &msgs, &words);
  const std::uint64_t halo_msgs = 2ull * ranks * gens;
  EXPECT_EQ(msgs, halo_msgs + 2u * (ranks - 1));  // + final barrier
  EXPECT_EQ(words, halo_msgs * (1024u / 64u + 1u));
  const std::uint64_t cell_payload_words = halo_msgs * (1024u / 64u);
  const std::uint64_t byte_format_words = halo_msgs * 1024u;
  EXPECT_EQ(byte_format_words / cell_payload_words, 64u);
}

// --------------------------------------------------------- packed boards ---

using Shape = std::pair<std::size_t, std::size_t>;

// Shapes chosen to stress the bit-packing: narrower than one word,
// word-aligned, one past a word, multi-word, single row / single column.
// 4x330 has six words, so a 3-word tile starts the two-word kernel loop at
// an odd word.
constexpr Shape kAwkwardShapes[] = {{1, 1},  {1, 130}, {17, 1},
                                    {3, 63}, {8, 64},  {5, 65},
                                    {33, 29}, {6, 200}, {4, 330}};

TEST(PackedGrid, RoundTripsThroughByteGridOnAwkwardShapes) {
  for (auto [rows, cols] : kAwkwardShapes) {
    const pl::Grid g = pl::random_grid(rows, cols, 0.4, rows * 1000 + cols);
    const pl::PackedGrid p(g);
    EXPECT_EQ(p.words_per_row(), (cols + 63) / 64);
    EXPECT_EQ(p.population(), g.population());
    EXPECT_EQ(p.unpack(), g) << rows << "x" << cols;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        ASSERT_EQ(p.get(r, c), g.get(r, c));
    if (rows < 2) continue;
    // Rows [1, rows) at an offset, into a board that starts all alive: a
    // load_rows that ORs without zeroing first would keep stale cells.
    // Each way in two row ranges, as run_plan's team converts.
    pl::PackedGrid strip(rows - 1, cols);
    for (std::size_t r = 0; r < strip.rows(); ++r)
      for (std::size_t c = 0; c < cols; ++c) strip.set(r, c, true);
    const std::size_t half = strip.rows() / 2;
    strip.load_rows(g, 1, half);
    strip.load_rows(g, 1, 0, half);
    pl::Grid back(rows, cols);
    strip.store_rows(back, 1, 0, half);
    strip.store_rows(back, 1, half);
    for (std::size_t c = 0; c < cols; ++c) ASSERT_FALSE(back.get(0, c));
    for (std::size_t r = 1; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        ASSERT_EQ(back.get(r, c), g.get(r, c))
            << rows << "x" << cols << " at (" << r << "," << c << ")";
  }
  // Every cols % 8 residue over one, two and three words: the converters
  // move 8 cells per multiply and the rest one at a time.
  for (std::size_t cols = 1; cols <= 130; ++cols) {
    const pl::Grid g = pl::random_grid(3, cols, 0.5, cols);
    const pl::PackedGrid p(g);
    EXPECT_EQ(p.population(), g.population()) << "3x" << cols;
    ASSERT_EQ(p.unpack(), g) << "3x" << cols;
  }
}

// A cell is bit 0 of its byte. Bytes of every value, each next to other
// values with high bits set: a pack that multiplied without masking to
// bit 0 first would carry high bits into neighboring cells, and store_rows
// must write back only 0 and 1.
TEST(PackedGrid, PacksBitZeroOfEveryByteValue) {
  constexpr std::size_t kRows = 3, kCols = 256 + 11;
  pl::Grid g(kRows, kCols);
  for (std::size_t r = 0; r < kRows; ++r) {
    std::uint8_t* cells = g.row_data(r);
    for (std::size_t c = 0; c < kCols; ++c)
      cells[c] = static_cast<std::uint8_t>(r == 0   ? c
                                           : r == 1 ? 255 - c
                                                    : 37 * c + 11);
  }
  const pl::PackedGrid p(g);
  pl::Grid back(kRows, kCols);
  for (std::size_t r = 0; r < kRows; ++r)
    std::fill_n(back.row_data(r), kCols, std::uint8_t{0xaa});
  p.store_rows(back, 0);
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c) {
      const int bit = g.row_data(r)[c] & 1;
      ASSERT_EQ(p.get(r, c), bit != 0) << "(" << r << "," << c << ")";
      ASSERT_EQ(back.row_data(r)[c], bit) << "(" << r << "," << c << ")";
    }
}

TEST(PackedGrid, SetGetAndBounds) {
  pl::PackedGrid p(3, 70);
  EXPECT_FALSE(p.get(2, 69));
  p.set(2, 69, true);
  EXPECT_TRUE(p.get(2, 69));
  EXPECT_EQ(p.population(), 1u);
  p.set(2, 69, false);
  EXPECT_EQ(p.population(), 0u);
  EXPECT_THROW((void)p.get(3, 0), std::out_of_range);
  EXPECT_THROW(p.set(0, 70, true), std::out_of_range);
  EXPECT_THROW(pl::PackedGrid(0, 5), std::invalid_argument);
  // Sizes whose word arithmetic wraps: cols + 63 (0 words per row) and
  // rows + 2. Rejected before allocating.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(pl::PackedGrid(1, kMax), std::invalid_argument);
  EXPECT_THROW(pl::PackedGrid(kMax - 1, 1), std::invalid_argument);

  // load_rows/store_rows check the byte span before touching either
  // side: a narrower grid would otherwise be read past its row ends.
  p.set(1, 5, true);
  const pl::PackedGrid p_before = p;
  const pl::Grid narrow = pl::random_grid(3, 69, 0.5, 3);
  const pl::Grid wide = pl::random_grid(3, 71, 0.5, 4);
  const pl::Grid tall = pl::random_grid(5, 70, 0.5, 5);
  EXPECT_THROW(p.load_rows(narrow, 0), std::invalid_argument);
  EXPECT_THROW(p.load_rows(wide, 0), std::invalid_argument);
  EXPECT_THROW(p.load_rows(tall, 3), std::invalid_argument);  // rows 3..5
  EXPECT_THROW(p.load_rows(tall, 6), std::invalid_argument);
  EXPECT_TRUE(p == p_before);
  const auto store_throws = [&](const pl::Grid& target, std::size_t first) {
    pl::Grid out = target;
    EXPECT_THROW(p.store_rows(out, first), std::invalid_argument);
    EXPECT_EQ(out, target);
  };
  store_throws(narrow, 0);
  store_throws(wide, 0);
  store_throws(tall, 3);
  store_throws(tall, 6);
  // A row range must lie within the board's rows, in order.
  EXPECT_THROW(p.load_rows(tall, 0, 2, 1), std::invalid_argument);
  EXPECT_THROW(p.load_rows(tall, 0, 0, 4), std::invalid_argument);
  EXPECT_THROW(p.load_rows(tall, 0, 4), std::invalid_argument);
  EXPECT_TRUE(p == p_before);
  pl::Grid tall_out = tall;
  EXPECT_THROW(p.store_rows(tall_out, 0, 2, 1), std::invalid_argument);
  EXPECT_THROW(p.store_rows(tall_out, 0, 0, 4), std::invalid_argument);
  EXPECT_EQ(tall_out, tall);
  // The largest legal offset works both ways.
  p.load_rows(tall, 2);
  pl::Grid out(5, 70);
  p.store_rows(out, 2);
  for (std::size_t r = 2; r < 5; ++r)
    for (std::size_t c = 0; c < 70; ++c)
      ASSERT_EQ(out.get(r, c), tall.get(r, c));
}

TEST(PackedGrid, EqualityIgnoresGhostAndPaddingBits) {
  pl::Grid g = pl::random_grid(6, 67, 0.4, 77);
  pl::PackedGrid a(g);
  pl::PackedGrid b(g);
  // Force a full ghost-bit sync on one copy only: the boards still
  // compare equal because padding bits are masked out of the comparison.
  a.sync_row_ghosts(0, a.rows());
  a.sync_halo_rows();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.population(), b.population());
  EXPECT_EQ(a.unpack(), b.unpack());
}

// Under kDead nothing writes a board's halo words, padding bits or (on
// one rank) halo rows: the kernel reads them as dead neighbours, so a
// fresh board must read 0 there whether calloc or fresh mapped pages back
// it. 2048 x 8190 is past the 2 MiB cut (2050 rows x 130 words x 8 B =
// 2.13 MB), with a tail of padding bits in each row's last word.
TEST(PackedGrid, FreshDeadBoardReadsZeroOutsideItsCells) {
  for (const auto& [rows, cols] : {Shape{3, 70}, Shape{2048, 8190}}) {
    pl::PackedGrid g(rows, cols, pl::Boundary::kDead);
    const std::size_t words = g.words_per_row();
    const std::size_t bytes = (rows + 2) * (words + 2) * sizeof(std::uint64_t);
    EXPECT_EQ(bytes >= pdc::core::kHugePageBytes, rows > 3);
    const auto outside_is_zero = [&](const std::uint64_t* payload) {
      return payload[-1] == 0 && payload[words] == 0 &&
             (payload[words - 1] & ~g.tail_mask()) == 0;
    };
    const auto all_zero = [&](const std::uint64_t* payload) {
      return std::all_of(payload - 1, payload + words + 1,
                         [](std::uint64_t w) { return w == 0; });
    };
    EXPECT_TRUE(all_zero(g.halo_above_words())) << rows << "x" << cols;
    EXPECT_TRUE(all_zero(g.halo_below_words())) << rows << "x" << cols;
    std::size_t bad_rows = 0;
    for (std::size_t r = 0; r < rows; ++r)
      bad_rows += outside_is_zero(g.row_words(r)) ? 0 : 1;
    EXPECT_EQ(bad_rows, 0u) << rows << "x" << cols;
    EXPECT_EQ(g.population(), 0u);
  }
}

namespace {

/// Cell i of a padded row whose element 0 is the [-1] halo word: i runs
/// from -1 (bit 63 of the halo word) to 64 * nwords (bit 0 of word
/// [nwords]).
bool cell(const std::uint64_t* padded, std::ptrdiff_t i) {
  const auto at = static_cast<std::size_t>(i + 64);
  return ((padded[at / 64] >> (at % 64)) & 1) != 0;
}

/// "16 32 64": the widths a test ran, for RecordProperty.
std::string width_list(std::span<const std::size_t> widths) {
  std::string s;
  for (const std::size_t w : widths)
    s += (s.empty() ? "" : " ") + std::to_string(w);
  return s;
}

}  // namespace

// The SWAR kernel at every vector width this CPU runs, on two rows of
// spans 1-17 words wide (every tail each width steps down through),
// against B3/S23 cell by cell. Random halo words make the cross-word bits
// at both span ends count; the words around each output span must stay
// untouched, and the tail mask must clear the bits it drops from the last
// word.
TEST(LifeKernel, StepRowsMatchesPerCellRuleAtEveryWidth) {
  const auto widths = pdc::stencil::vector_widths();
  RecordProperty("vector_widths", width_list(widths));
  constexpr std::size_t kRows = 2;
  std::mt19937_64 rng(2013);
  for (const std::size_t bytes : widths)
    for (std::size_t n = 1; n <= 17; ++n) {
      // Padded rows: the [-1] halo word, n payload words, the [n] halo
      // word. The source has a row above and a row below the output's.
      const std::size_t stride = n + 2;
      std::vector<std::uint64_t> src((kRows + 2) * stride),
          out(kRows * stride);
      for (auto& w : src) w = rng();
      for (auto& w : out) w = rng();
      const std::uint64_t tail_mask =
          n % 2 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << 37) - 1;
      std::vector<std::uint64_t> want = out;
      for (std::size_t r = 0; r < kRows; ++r) {
        const std::uint64_t* up = &src[r * stride];
        const std::uint64_t* mid = up + stride;
        const std::uint64_t* down = mid + stride;
        std::uint64_t* row = &want[r * stride + 1];
        std::fill_n(row, n, std::uint64_t{0});
        for (std::size_t i = 0; i < 64 * n; ++i) {
          const auto c = static_cast<std::ptrdiff_t>(i);
          int count = cell(mid, c - 1) + cell(mid, c + 1);
          for (std::ptrdiff_t dc = -1; dc <= 1; ++dc)
            count += cell(up, c + dc) + cell(down, c + dc);
          if (count == 3 || (count == 2 && cell(mid, c)))
            row[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        row[n - 1] &= tail_mask;
      }
      pl::detail::step_rows(bytes, src.data() + 1, out.data() + 1, stride,
                            kRows, n, tail_mask);
      ASSERT_EQ(out, want) << bytes << " bytes, " << n << " words";
    }

  pl::Grid board = pl::random_grid(8, 200, 0.4, 1);
  pl::run_plan(board, 1, {});
  EXPECT_EQ(pdc::obs::gauge("life.kernel_words_per_vector").value(),
            static_cast<std::int64_t>(widths.back() / sizeof(std::uint64_t)));

  // A width this CPU does not run is refused, not executed.
  std::uint64_t rows[9] = {};
  for (const std::size_t bytes : {0, 8, 128})
    EXPECT_THROW(pl::detail::step_rows(bytes, rows + 1, rows + 4, 3, 1, 1,
                                       ~std::uint64_t{0}),
                 std::invalid_argument);
}

// The packed engines against the per-cell byte oracle, over both boundary
// rules, all the awkward shapes, multi-generation runs (a single row means
// the wrap halo rows alias the row itself) and tile widths. Tiles of 1, 2
// and 3 words start the kernel at non-zero words of either parity, so its
// two-word loop and its odd last word both run mid-row; 128 covers every
// shape's row with one tile.
class PackedEquivalence
    : public ::testing::TestWithParam<
          std::tuple<pl::Boundary, Shape, int /*gens*/,
                     std::size_t /*tile_words*/>> {};

TEST_P(PackedEquivalence, AllEnginesMatchByteReference) {
  const auto [boundary, shape, gens, tile_words] = GetParam();
  const auto [rows, cols] = shape;
  const pl::Grid start =
      pl::random_grid(rows, cols, 0.42, 7u * rows + cols, boundary);
  const pl::EngineOptions opt{.tile_words = tile_words};

  pl::Grid ref = start;
  pl::run_reference(ref, gens);

  pl::Grid seq = start;
  pl::run_plan(seq, gens, {}, opt);
  EXPECT_EQ(ref, seq) << "sequential " << rows << "x" << cols;

  pl::Grid thr = start;
  pl::run_plan(thr, gens, {.threads_per_rank = 3}, opt);
  EXPECT_EQ(ref, thr) << "threaded " << rows << "x" << cols;

  pl::Grid msg = start;
  const int ranks = static_cast<int>(std::min<std::size_t>(3, rows));
  pl::run_message_passing(msg, gens, ranks, opt);
  EXPECT_EQ(ref, msg) << "message-passing " << rows << "x" << cols;
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, PackedEquivalence,
    ::testing::Combine(
        ::testing::Values(pl::Boundary::kDead, pl::Boundary::kTorus),
        ::testing::ValuesIn(kAwkwardShapes), ::testing::Values(1, 3, 8),
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{128})));
