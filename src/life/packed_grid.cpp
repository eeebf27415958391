#include "pdc/life/packed_grid.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace pdc::life {

namespace {

constexpr std::size_t kBits = 64;

/// Column tile width (words) for the cache-blocked sweep: 3 source rows +
/// 1 destination row per tile, 4 x 512 x 8 B = 16 KiB — comfortably L1.
constexpr std::size_t kTileWords = 512;

/// s = a + b (bit), c = carry.
inline void half_add(std::uint64_t a, std::uint64_t b, std::uint64_t& s,
                     std::uint64_t& c) {
  s = a ^ b;
  c = a & b;
}

/// s = a + b + cin (bit), c = carry.
inline void full_add(std::uint64_t a, std::uint64_t b, std::uint64_t cin,
                     std::uint64_t& s, std::uint64_t& c) {
  const std::uint64_t t = a ^ b;
  s = t ^ cin;
  c = (a & b) | (cin & t);
}

/// The byte rows load_rows/store_rows touch: rows [first, first + rows)
/// of `grid`, which must be `cols` wide.
void check_span(const Grid& grid, std::size_t first, std::size_t rows,
                std::size_t cols) {
  if (grid.cols() != cols)
    throw std::invalid_argument("packed/byte grid column count mismatch");
  if (first > grid.rows() || grid.rows() - first < rows)
    throw std::invalid_argument("packed rows run past the byte grid");
}

}  // namespace

PackedGrid::PackedGrid(std::size_t rows, std::size_t cols, Boundary boundary)
    : rows_(rows),
      cols_(cols),
      words_((cols + kBits - 1) / kBits),
      boundary_(boundary),
      tail_mask_(cols % kBits == 0 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << (cols % kBits)) - 1),
      data_((rows + 2) * (words_ + 2), 0) {
  if (rows_ == 0 || cols_ == 0)
    throw std::invalid_argument("grid dimensions must be > 0");
}

PackedGrid::PackedGrid(const Grid& grid)
    : PackedGrid(grid.rows(), grid.cols(), grid.boundary()) {
  load_rows(grid, 0);
}

Grid PackedGrid::unpack() const {
  Grid out(rows_, cols_, boundary_);
  store_rows(out, 0);
  return out;
}

// Both loops bound by a local `cols`: the compiler must assume the stores
// through `dst` may alias cols_ and would reload it for every cell.
void PackedGrid::load_rows(const Grid& grid, std::size_t first) {
  check_span(grid, first, rows_, cols_);
  const std::size_t cols = cols_;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint8_t* src = grid.row_data(first + r);
    std::uint64_t* dst = row_words(r);
    std::fill_n(dst, words_, std::uint64_t{0});
    for (std::size_t c = 0; c < cols; ++c)
      dst[c / kBits] |= static_cast<std::uint64_t>(src[c] & 1) << (c % kBits);
  }
}

void PackedGrid::store_rows(Grid& grid, std::size_t first) const {
  check_span(grid, first, rows_, cols_);
  const std::size_t cols = cols_;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint64_t* src = row_words(r);
    std::uint8_t* dst = grid.row_data(first + r);
    for (std::size_t c = 0; c < cols; ++c)
      dst[c] = static_cast<std::uint8_t>((src[c / kBits] >> (c % kBits)) & 1);
  }
}

bool PackedGrid::get(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("grid index");
  return ((row_words(r)[c / kBits] >> (c % kBits)) & 1) != 0;
}

void PackedGrid::set(std::size_t r, std::size_t c, bool alive) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("grid index");
  const std::uint64_t bit = std::uint64_t{1} << (c % kBits);
  std::uint64_t& word = row_words(r)[c / kBits];
  word = alive ? (word | bit) : (word & ~bit);
}

std::size_t PackedGrid::population() const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint64_t* w = row_words(r);
    for (std::size_t i = 0; i + 1 < words_; ++i)
      n += static_cast<std::size_t>(std::popcount(w[i]));
    n += static_cast<std::size_t>(std::popcount(w[words_ - 1] & tail_mask_));
  }
  return n;
}

const std::uint64_t* PackedGrid::row_words(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("grid row");
  return padded_row(r + 1);
}

std::uint64_t* PackedGrid::row_words(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("grid row");
  return padded_row(r + 1);
}

std::uint64_t* PackedGrid::halo_above_words() { return padded_row(0); }
std::uint64_t* PackedGrid::halo_below_words() { return padded_row(rows_ + 1); }

void PackedGrid::apply_ghosts(std::uint64_t* payload) {
  // West wrap: last cell of the row into bit 63 of the left halo word.
  const std::size_t rem = cols_ % kBits;
  const std::uint64_t last = payload[words_ - 1] & tail_mask_;
  const std::uint64_t first_cell = payload[0] & 1;
  const std::uint64_t last_cell =
      (last >> ((rem == 0 ? kBits : rem) - 1)) & 1;
  payload[-1] = last_cell << (kBits - 1);
  // East wrap: first cell of the row into the bit the `>> 1` shift of the
  // last payload word consumes — the first padding ("ghost") bit when cols
  // is not word-aligned, bit 0 of the right halo word otherwise.
  if (rem == 0) {
    payload[words_] = first_cell;
  } else {
    payload[words_ - 1] = last | (first_cell << rem);
    payload[words_] = 0;
  }
}

void PackedGrid::sync_row_ghosts(std::size_t row_begin, std::size_t row_end) {
  if (boundary_ != Boundary::kTorus) return;
  for (std::size_t r = row_begin; r < row_end; ++r)
    apply_ghosts(row_words(r));
}

void PackedGrid::sync_halo_row_ghosts() {
  if (boundary_ != Boundary::kTorus) return;
  apply_ghosts(halo_above_words());
  apply_ghosts(halo_below_words());
}

void PackedGrid::sync_halo_rows() {
  if (boundary_ != Boundary::kTorus) return;
  // Whole padded rows (halo words and ghost bits included).
  std::copy_n(padded_row(rows_) - 1, stride(), padded_row(0) - 1);
  std::copy_n(padded_row(1) - 1, stride(), padded_row(rows_ + 1) - 1);
}

void PackedGrid::step_row_words(const std::uint64_t* up,
                                const std::uint64_t* mid,
                                const std::uint64_t* down, std::uint64_t* out,
                                std::size_t nwords, std::uint64_t tail_mask) {
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t u = up[w], m = mid[w], d = down[w];
    // The 8 neighbor planes: each row shifted toward west (cell c-1 lands
    // in lane c) and east, with the cross-word bit from the adjacent word
    // (or halo word / ghost bit at the row ends).
    const std::uint64_t uw = (u << 1) | (up[w - 1] >> (kBits - 1));
    const std::uint64_t ue = (u >> 1) | (up[w + 1] << (kBits - 1));
    const std::uint64_t mw = (m << 1) | (mid[w - 1] >> (kBits - 1));
    const std::uint64_t me = (m >> 1) | (mid[w + 1] << (kBits - 1));
    const std::uint64_t dw = (d << 1) | (down[w - 1] >> (kBits - 1));
    const std::uint64_t de = (d >> 1) | (down[w + 1] << (kBits - 1));

    // Carry-save adder tree: 8 one-bit inputs -> 4-bit count per lane.
    std::uint64_t s0, c0, s1, c1, s2, c2;
    full_add(uw, u, ue, s0, c0);
    full_add(dw, d, de, s1, c1);
    half_add(mw, me, s2, c2);
    std::uint64_t n0, carry2;
    full_add(s0, s1, s2, n0, carry2);  // ones
    std::uint64_t t2, c4a, n1, c4b;
    full_add(c0, c1, c2, t2, c4a);     // twos
    half_add(t2, carry2, n1, c4b);
    std::uint64_t n2, n3;
    half_add(c4a, c4b, n2, n3);        // fours, eights

    // B3/S23: count==3 always lives, count==2 lives iff already alive.
    out[w] = n1 & ~n2 & ~n3 & (n0 | m);
  }
  out[nwords - 1] &= tail_mask;
}

bool PackedGrid::step_tile_into(PackedGrid& dst, std::size_t row_begin,
                                std::size_t row_end, std::size_t word_begin,
                                std::size_t word_end) const {
  if (dst.rows_ != rows_ || dst.cols_ != cols_)
    throw std::invalid_argument("destination grid shape mismatch");
  bool changed = false;
  for (std::size_t w0 = word_begin; w0 < word_end; w0 += kTileWords) {
    const std::size_t w1 = std::min(word_end, w0 + kTileWords);
    // Ghost bits beyond cols live in the last payload word; mask them out
    // of both the kernel output and the changed comparison.
    const std::uint64_t mask = w1 == words_ ? tail_mask_ : ~std::uint64_t{0};
    const std::size_t n = w1 - w0;
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const std::uint64_t* src = padded_row(r + 1) + w0;
      std::uint64_t* out = dst.padded_row(r + 1) + w0;
      step_row_words(padded_row(r) + w0, src, padded_row(r + 2) + w0, out, n,
                     mask);
      if (!changed) {
        std::uint64_t diff = (src[n - 1] ^ out[n - 1]) & mask;
        for (std::size_t i = 0; i + 1 < n; ++i) diff |= src[i] ^ out[i];
        changed = diff != 0;
      }
    }
  }
  return changed;
}

bool PackedGrid::operator==(const PackedGrid& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ ||
      boundary_ != other.boundary_)
    return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint64_t* a = row_words(r);
    const std::uint64_t* b = other.row_words(r);
    for (std::size_t i = 0; i + 1 < words_; ++i)
      if (a[i] != b[i]) return false;
    if (((a[words_ - 1] ^ b[words_ - 1]) & tail_mask_) != 0) return false;
  }
  return true;
}

}  // namespace pdc::life
