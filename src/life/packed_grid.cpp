#include "pdc/life/packed_grid.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "pdc/stencil/vector_width.hpp"

namespace pdc::life {

namespace {

constexpr std::size_t kBits = 64;

/// Column tile width (words) for the cache-blocked sweep: 3 source rows +
/// 1 destination row per tile, 4 x 512 x 8 B = 16 KiB — comfortably L1.
constexpr std::size_t kTileWords = 512;

/// kBytes / 8 64-cell words, compiled to whatever the enclosing function's
/// target supports: SSE2, AVX2 or AVX-512F. 8 bytes is the plain word.
template <std::size_t kBytes>
struct Words {
  typedef std::uint64_t V __attribute__((vector_size(kBytes)));
};
template <>
struct Words<8> {
  using V = std::uint64_t;
};

// Vectors move only through references and memcpy below: passing a 32- or
// 64-byte vector by value changes the calling convention outside its
// target, and GCC warns about it (-Wpsabi) even in an inlined helper.

/// s = a + b (bit), c = carry.
template <class W>
[[gnu::always_inline]] inline void half_add(const W& a, const W& b, W& s,
                                            W& c) {
  s = a ^ b;
  c = a & b;
}

/// s = a + b + cin (bit), c = carry.
template <class W>
[[gnu::always_inline]] inline void full_add(const W& a, const W& b,
                                            const W& cin, W& s, W& c) {
  const W t = a ^ b;
  s = t ^ cin;
  c = (a & b) | (cin & t);
}

template <class W>
[[gnu::always_inline]] inline void load(W& v, const std::uint64_t* p) {
  std::memcpy(&v, p, sizeof v);
}

/// The next generation of the sizeof(W) / 8 words at `mid` into `out`; the
/// rows above and below start at `up` and `down`, and each row's [-1]
/// word and the word past the span must be readable.
template <class W>
[[gnu::always_inline]] inline void next_words(const std::uint64_t* up,
                                              const std::uint64_t* mid,
                                              const std::uint64_t* down,
                                              std::uint64_t* out) {
  W u, m, d, uw, ue, mw, me, dw, de;
  load(u, up);
  load(m, mid);
  load(d, down);
  load(uw, up - 1);
  load(ue, up + 1);
  load(mw, mid - 1);
  load(me, mid + 1);
  load(dw, down - 1);
  load(de, down + 1);
  // The 8 neighbor planes: each row shifted toward west (cell c-1 lands
  // in lane c) and east, with the cross-word bit from the adjacent word
  // (or halo word / ghost bit at the row ends).
  uw = (u << 1) | (uw >> (kBits - 1));
  ue = (u >> 1) | (ue << (kBits - 1));
  mw = (m << 1) | (mw >> (kBits - 1));
  me = (m >> 1) | (me << (kBits - 1));
  dw = (d << 1) | (dw >> (kBits - 1));
  de = (d >> 1) | (de << (kBits - 1));

  // Carry-save adder tree: 8 one-bit inputs -> 4-bit count per lane.
  W s0, c0, s1, c1, s2, c2;
  full_add(uw, u, ue, s0, c0);
  full_add(dw, d, de, s1, c1);
  half_add(mw, me, s2, c2);
  W n0, carry2;
  full_add(s0, s1, s2, n0, carry2);  // ones
  W t2, c4a, n1, c4b;
  full_add(c0, c1, c2, t2, c4a);     // twos
  half_add(t2, carry2, n1, c4b);
  W n2, n3;
  half_add(c4a, c4b, n2, n3);        // fours, eights

  // B3/S23: count==3 always lives, count==2 lives iff already alive.
  const W next = n1 & ~n2 & ~n3 & (n0 | m);
  std::memcpy(out, &next, sizeof next);
}

/// Words [w, nwords) of a span: whole kBytes vectors, then the rest
/// through each narrower width down to a single word (each runs at most
/// once).
template <std::size_t kBytes>
[[gnu::always_inline]] inline void step_words(const std::uint64_t* up,
                                              const std::uint64_t* mid,
                                              const std::uint64_t* down,
                                              std::uint64_t* out,
                                              std::size_t w,
                                              std::size_t nwords) {
  for (; w + kBytes / 8 <= nwords; w += kBytes / 8)
    next_words<typename Words<kBytes>::V>(up + w, mid + w, down + w, out + w);
  if constexpr (kBytes > 8)
    step_words<kBytes / 2>(up, mid, down, out, w, nwords);
}

/// The SWAR kernel at each vector width.
struct StepRows {
  static constexpr std::string_view kGauge = "life.kernel_words_per_vector";
  static constexpr std::size_t kUnitBytes = sizeof(std::uint64_t);

  /// `rows` consecutive rows of a block `nwords` wide at kBytes per
  /// vector, in a padded layout `stride` words per row: `above` points at
  /// the block's first word in the row above the first one computed, and
  /// every row's [-1] and [nwords] neighbors must be readable. `out`
  /// receives the next generation of the first row's span, the rest
  /// `stride` apart; `tail_mask` is AND-ed into each row's last word (pass
  /// ~0 for blocks that do not end a row). A block narrower than one
  /// vector runs whole at a narrower width, so its rows skip the
  /// step-down.
  template <std::size_t kBytes>
  [[gnu::always_inline]] static void run(const std::uint64_t* above,
                                         std::uint64_t* out,
                                         std::size_t stride, std::size_t rows,
                                         std::size_t nwords,
                                         std::uint64_t tail_mask) {
    if constexpr (kBytes > 16) {
      if (nwords < kBytes / 8)
        return run<kBytes / 2>(above, out, stride, rows, nwords, tail_mask);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint64_t* up = above + r * stride;
      std::uint64_t* row = out + r * stride;
      step_words<kBytes>(up, up + stride, up + 2 * stride, row, 0, nwords);
      row[nwords - 1] &= tail_mask;
    }
  }
};

using StepRowsDispatch = stencil::VectorDispatch<
    StepRows, void(const std::uint64_t*, std::uint64_t*, std::size_t,
                   std::size_t, std::size_t, std::uint64_t)>;

/// The 8-byte loads and stores below read cell i from byte i.
std::uint64_t to_little_endian(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big)
    return __builtin_bswap64(v);
  return v;
}

/// Bit 0 of each of the 8 cell bytes at `cells`, as bits 0-7: the mask
/// leaves one 0/1 per byte, and the multiply sums every byte into the top
/// byte at its own bit (no two partial products share a bit, so nothing
/// carries).
std::uint64_t pack8(const std::uint8_t* cells) {
  std::uint64_t v = 0;
  std::memcpy(&v, cells, sizeof v);
  v = to_little_endian(v) & 0x0101010101010101u;
  return (v * 0x0102040810204080u) >> 56;
}

/// The inverse: bit i of `bits` into cell byte i as 0 or 1. The multiply
/// copies the byte into all 8 bytes, the mask keeps bit i in byte i, and
/// adding 0x7f carries it into that byte's top bit.
void unpack8(std::uint64_t bits, std::uint8_t* cells) {
  std::uint64_t v = (bits * 0x0101010101010101u) & 0x8040201008040201u;
  v = ((v + 0x7f7f7f7f7f7f7f7fu) >> 7) & 0x0101010101010101u;
  v = to_little_endian(v);
  std::memcpy(cells, &v, sizeof v);
}

/// Payload words per row, ceil(cols / 64), without the wrap of cols + 63.
std::size_t payload_words(std::size_t cols) {
  return cols / kBits + (cols % kBits != 0);
}

/// Words in the padded buffer, (rows + 2) x (words + 2). Throws
/// std::invalid_argument, before anything is allocated, on a zero
/// dimension or a board whose padded bit count does not fit in size_t.
std::size_t padded_size(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("grid dimensions must be > 0");
  constexpr std::size_t kMaxWords =
      std::numeric_limits<std::size_t>::max() / kBits;
  const std::size_t stride = payload_words(cols) + 2;
  if (rows > kMaxWords - 2 || rows + 2 > kMaxWords / stride)
    throw std::invalid_argument("grid dimensions overflow size_t");
  return (rows + 2) * stride;
}

/// The byte rows a board of `rows` x `cols` stands for, [first, first +
/// rows) of `grid`, must exist, and [row_begin, row_end) (row_end
/// kAllRows: rows) must be a range of its rows. Returns the range's end.
std::size_t check_span(const Grid& grid, std::size_t first, std::size_t rows,
                       std::size_t cols, std::size_t row_begin,
                       std::size_t row_end) {
  if (grid.cols() != cols)
    throw std::invalid_argument("packed/byte grid column count mismatch");
  if (first > grid.rows() || grid.rows() - first < rows)
    throw std::invalid_argument("packed rows run past the byte grid");
  if (row_end == PackedGrid::kAllRows) row_end = rows;
  if (row_begin > row_end || row_end > rows)
    throw std::invalid_argument("packed row range out of bounds");
  return row_end;
}

}  // namespace

PackedGrid::PackedGrid(std::size_t rows, std::size_t cols, Boundary boundary)
    : rows_(rows),
      cols_(cols),
      words_(payload_words(cols)),
      boundary_(boundary),
      tail_mask_(cols % kBits == 0 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << (cols % kBits)) - 1),
      data_(padded_size(rows, cols)) {}

PackedGrid::PackedGrid(const Grid& grid)
    : PackedGrid(grid.rows(), grid.cols(), grid.boundary()) {
  load_rows(grid, 0);
}

Grid PackedGrid::unpack() const {
  Grid out(rows_, cols_, boundary_);
  store_rows(out, 0);
  return out;
}

// Each word is built (or split) in a register, 8 cells per multiply, with
// a per-cell loop for the last cols % 8; whole-word stores leave the
// padding bits 0. Both loops bound by locals: the compiler must assume the
// stores through `dst` may alias cols_ and words_ and would reload them.
void PackedGrid::load_rows(const Grid& grid, std::size_t first,
                           std::size_t row_begin, std::size_t row_end) {
  row_end = check_span(grid, first, rows_, cols_, row_begin, row_end);
  const std::size_t cols = cols_, words = words_;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::uint8_t* src = grid.row_data(first + r);
    std::uint64_t* dst = row_words(r);
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint8_t* cells = src + w * kBits;
      const std::size_t n = std::min(kBits, cols - w * kBits);
      std::uint64_t word = 0;
      std::size_t i = 0;
      for (; i + 8 <= n; i += 8) word |= pack8(cells + i) << i;
      for (; i < n; ++i) word |= std::uint64_t{cells[i] & 1u} << i;
      dst[w] = word;
    }
  }
}

void PackedGrid::store_rows(Grid& grid, std::size_t first,
                            std::size_t row_begin, std::size_t row_end) const {
  row_end = check_span(grid, first, rows_, cols_, row_begin, row_end);
  const std::size_t cols = cols_, words = words_;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::uint64_t* src = row_words(r);
    std::uint8_t* dst = grid.row_data(first + r);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint8_t* cells = dst + w * kBits;
      const std::size_t n = std::min(kBits, cols - w * kBits);
      const std::uint64_t word = src[w];
      std::size_t i = 0;
      for (; i + 8 <= n; i += 8) unpack8((word >> i) & 0xffu, cells + i);
      for (; i < n; ++i) cells[i] = static_cast<std::uint8_t>((word >> i) & 1);
    }
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
    StepRowsDispatch::widest(padded_row(row_begin) + w0,
                             dst.padded_row(row_begin + 1) + w0, stride(),
                             row_end - row_begin, n, mask);
    for (std::size_t r = row_begin; r < row_end && !changed; ++r) {
      const std::uint64_t* src = padded_row(r + 1) + w0;
      const std::uint64_t* out = dst.padded_row(r + 1) + w0;
      std::uint64_t diff = (src[n - 1] ^ out[n - 1]) & mask;
      for (std::size_t i = 0; i + 1 < n; ++i) diff |= src[i] ^ out[i];
      changed = diff != 0;
    }
  }
  return changed;
}

void detail::step_rows(std::size_t vector_bytes, const std::uint64_t* above,
                       std::uint64_t* out, std::size_t stride,
                       std::size_t rows, std::size_t nwords,
                       std::uint64_t tail_mask) {
  StepRowsDispatch::at(vector_bytes)(above, out, stride, rows, nwords,
                                     tail_mask);
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
