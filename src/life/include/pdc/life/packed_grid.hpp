#pragma once
// Bit-packed Game of Life board: 64 cells per uint64_t word. This is the
// representation the engines actually run on; the byte `Grid` stays the
// public API and the reference implementation, with conversion at the
// boundaries.
//
// Layout: row-major payload words with one halo word on each side of every
// row and one halo row above and below the board, so the generation kernel
// is completely branch-free — every `word[w - 1]` / `word[w + 1]` and every
// `row - 1` / `row + 1` read lands on valid memory that already holds the
// right bits:
//
//   * left halo word, bit 63  = the row's last cell (torus) or 0 (dead),
//     so `(word << 1) | (halo >> 63)` yields the west-neighbor plane;
//   * right halo word, bit 0  = the row's first cell (torus) or 0, the
//     east wrap when cols is a multiple of 64;
//   * when cols % 64 != 0, the east wrap bit instead lives in the first
//     *padding* bit of the last payload word (the "ghost" bit), so the
//     plain `word >> 1` east shift picks it up; kernel output is masked
//     with tail_mask() so ghosts never leak into the stored board;
//   * the halo rows are whole-row copies of the opposite edge rows (torus)
//     or stay all-zero (dead).
//
// The per-generation kernel (behind step_tile_into) counts the 8 neighbors
// of 64 cells per word at once with a SWAR carry-save adder tree: bitwise
// half/full adders compress the 8 shifted neighbor planes into a 4-bit
// count per bit lane, and B3/S23 becomes four boolean ops — no per-cell
// loads, branches, or modulo. It steps a vector of words at a time, at the
// widest width this CPU runs (stencil::vector_widths(): 2, 4 or 8 words
// per SSE2, AVX2 or AVX-512F vector), and the last words of a span through
// each narrower width down to a plain uint64_t, all one adder tree.
//
// Conversion at the boundaries moves 8 cells per multiply: load_rows
// gathers bit 0 of 8 cell bytes into one byte, store_rows spreads a byte
// back into 8 cell bytes of 0 or 1.

#include <cstddef>
#include <cstdint>

#include "pdc/core/zeroed_buffer.hpp"
#include "pdc/life/grid.hpp"

namespace pdc::life {

class PackedGrid {
 public:
  /// Throws std::invalid_argument, before allocating, on a zero dimension
  /// or a board whose padded bit count, (rows + 2) x (words_per_row() + 2)
  /// x 64, does not fit in size_t.
  PackedGrid(std::size_t rows, std::size_t cols,
             Boundary boundary = Boundary::kTorus);
  /// Pack a byte grid (same dimensions and boundary rule).
  explicit PackedGrid(const Grid& grid);

  /// Convert back to the public byte representation.
  [[nodiscard]] Grid unpack() const;

  /// The default row_end of load_rows/store_rows: through rows().
  static constexpr std::size_t kAllRows = static_cast<std::size_t>(-1);

  /// Row r of this board stands for row first + r of `grid`. Pack rows
  /// [row_begin, row_end) of this board (by default all of them) from
  /// their grid rows, overwriting their payload words whole: a cell is
  /// bit 0 of its byte, and the padding bits come out 0. Ghost bits need a
  /// re-sync afterwards. Calls on disjoint row ranges may run at once.
  /// Throws std::invalid_argument, touching nothing, if the column counts
  /// differ, rows [first, first + rows()) run past the end of `grid`, or
  /// the range is not within [0, rows()).
  void load_rows(const Grid& grid, std::size_t first,
                 std::size_t row_begin = 0, std::size_t row_end = kAllRows);
  /// Unpack rows [row_begin, row_end) of this board into their rows of
  /// `grid`, each cell as a byte of 0 or 1; throws like load_rows.
  void store_rows(Grid& grid, std::size_t first, std::size_t row_begin = 0,
                  std::size_t row_end = kAllRows) const;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] Boundary boundary() const { return boundary_; }

  /// Payload words per row: ceil(cols / 64).
  [[nodiscard]] std::size_t words_per_row() const { return words_; }
  /// Valid-bit mask for the last payload word of a row (all ones when
  /// cols % 64 == 0).
  [[nodiscard]] std::uint64_t tail_mask() const { return tail_mask_; }

  [[nodiscard]] bool get(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, bool alive);
  [[nodiscard]] std::size_t population() const;

  /// Payload words of logical row r (word 0; the row's halo words sit at
  /// index -1 and words_per_row()).
  [[nodiscard]] const std::uint64_t* row_words(std::size_t r) const;
  [[nodiscard]] std::uint64_t* row_words(std::size_t r);

  /// Payload words of the halo rows above row 0 / below row rows()-1, for
  /// engines (message passing) that fill them from received messages
  /// instead of sync_halo_rows().
  [[nodiscard]] std::uint64_t* halo_above_words();
  [[nodiscard]] std::uint64_t* halo_below_words();

  /// Refresh the column-wrap ghost bits (left/right halo words and the
  /// padding ghost bit) of logical rows [row_begin, row_end). A no-op
  /// under Boundary::kDead. Must run after the rows' payload changed and
  /// before they are read by a step.
  void sync_row_ghosts(std::size_t row_begin, std::size_t row_end);

  /// Refresh the ghost bits of the two halo rows from their own payload
  /// (for halo rows filled by hand rather than by sync_halo_rows()).
  void sync_halo_row_ghosts();

  /// Copy the wrap halo rows from the opposite edge rows (torus; no-op for
  /// dead). Edge rows' ghost bits must already be synced — the copy
  /// carries them along.
  void sync_halo_rows();

  /// One generation restricted to a tile: compute rows [row_begin,
  /// row_end) x payload words [word_begin, word_end) of `dst` from this
  /// board. Requires the ghosts and halo rows of *this to be in sync, and
  /// the *word columns adjacent to the tile* to hold current bits, which
  /// is what the stencil engine's one-tile activity dilation guarantees.
  /// Writes only masked payload words of `dst` (its ghosts need a re-sync
  /// afterwards). Wide tiles are swept in column blocks so each block's
  /// 4-row working set stays in L1. Returns true iff any masked word of
  /// the tile changed (the stencil dirty predicate). The first call picks
  /// the kernel's vector width and sets the obs gauge
  /// `life.kernel_words_per_vector`.
  bool step_tile_into(PackedGrid& dst, std::size_t row_begin,
                      std::size_t row_end, std::size_t word_begin,
                      std::size_t word_end) const;

  /// Cell-wise equality (dimensions, boundary, and live cells).
  [[nodiscard]] bool operator==(const PackedGrid& other) const;

 private:
  /// Words per padded row (payload + 2 halo words).
  [[nodiscard]] std::size_t stride() const { return words_ + 2; }
  /// Payload word 0 of padded row index pr in [0, rows + 2): pr 0 is the
  /// halo row above, pr 1..rows are logical rows, pr rows+1 is below.
  [[nodiscard]] std::uint64_t* padded_row(std::size_t pr) {
    return data_.data() + pr * stride() + 1;
  }
  [[nodiscard]] const std::uint64_t* padded_row(std::size_t pr) const {
    return data_.data() + pr * stride() + 1;
  }
  /// Write the ghost bits of one padded row from its payload.
  void apply_ghosts(std::uint64_t* payload);

  std::size_t rows_;
  std::size_t cols_;
  std::size_t words_;
  Boundary boundary_;
  std::uint64_t tail_mask_;
  /// (rows + 2) x (words + 2), zero until written. Under kDead nothing
  /// writes the halo words, the padding bits or a halo row beyond the
  /// board's edge, and the kernel reads their zeros as dead neighbours.
  core::ZeroedBuffer<std::uint64_t> data_;
};

namespace detail {
/// The SWAR kernel at `vector_bytes` per vector, one of
/// stencil::vector_widths() (step_tile_into runs the last), for tests and
/// benches that cover every width. It computes `rows` consecutive rows of
/// a block `nwords` words wide in a padded layout `stride` words per row:
/// `above` points at the block's first word in the row above the first
/// one computed, and each row's [-1] and [nwords] words must be readable.
/// `out` receives the first row's next generation and the rest follow
/// `stride` apart, each with `tail_mask` AND-ed into its last word. Throws
/// std::invalid_argument if this CPU does not run `vector_bytes`.
void step_rows(std::size_t vector_bytes, const std::uint64_t* above,
               std::uint64_t* out, std::size_t stride, std::size_t rows,
               std::size_t nwords, std::uint64_t tail_mask);
}  // namespace detail

}  // namespace pdc::life
