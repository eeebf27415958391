#pragma once
// Conway's Game of Life grid — the CS31 flagship lab appears twice in
// Table I: the sequential C version ("Game of Life") and the threaded
// version with a scalability study ("Parallel Game of Life").

#include <cstddef>
#include <cstdint>
#include <string>

#include "pdc/core/zeroed_buffer.hpp"

namespace pdc::life {

/// What lies beyond the edge of the board.
enum class Boundary {
  kDead,   ///< outside cells are permanently dead
  kTorus,  ///< the board wraps (the lab's default)
};

class Grid {
 public:
  /// All cells dead. The board is a core::ZeroedBuffer: nothing writes
  /// its zeros, so its pages are first touched by whoever fills it. Throws
  /// std::invalid_argument, before allocating, on a zero dimension or a
  /// cell count, rows x cols, that does not fit in size_t, and
  /// std::bad_alloc on a board too large to map.
  Grid(std::size_t rows, std::size_t cols,
       Boundary boundary = Boundary::kTorus);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] Boundary boundary() const { return boundary_; }

  [[nodiscard]] bool get(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, bool alive);

  /// Number of live cells.
  [[nodiscard]] std::size_t population() const;

  /// Live neighbors of (r, c) under the grid's boundary rule.
  [[nodiscard]] int live_neighbors(std::size_t r, std::size_t c) const;

  /// B3/S23: next state of cell (r, c).
  [[nodiscard]] bool next_state(std::size_t r, std::size_t c) const;

  /// Plaintext rendering: 'O' alive, '.' dead, one row per line.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Grid&) const = default;

  /// Raw row access for the engines (row-major, 1 byte per cell). A cell
  /// byte is 0 (dead) or 1 (alive), and a writer must store nothing else:
  /// get() and population() read the whole byte, while PackedGrid packs
  /// only its bit 0.
  [[nodiscard]] const std::uint8_t* row_data(std::size_t r) const;
  [[nodiscard]] std::uint8_t* row_data(std::size_t r);

 private:
  std::size_t rows_;
  std::size_t cols_;
  Boundary boundary_;
  core::ZeroedBuffer<std::uint8_t> cells_;
};

/// Parse a plaintext pattern ('O' or '*' alive, '.' or ' ' dead; rows are
/// lines) into a grid of exactly the pattern's bounding box.
[[nodiscard]] Grid parse_plaintext(const std::string& text,
                                   Boundary boundary = Boundary::kTorus);

/// Stamp `pattern` onto `board` with its top-left corner at (r, c);
/// throws std::out_of_range if it does not fit.
void stamp(Grid& board, const Grid& pattern, std::size_t r, std::size_t c);

/// Classic patterns.
[[nodiscard]] Grid glider(Boundary boundary = Boundary::kTorus);
[[nodiscard]] Grid blinker(Boundary boundary = Boundary::kTorus);
[[nodiscard]] Grid block(Boundary boundary = Boundary::kTorus);

/// Deterministic random board with approximately `density` live fraction.
[[nodiscard]] Grid random_grid(std::size_t rows, std::size_t cols,
                               double density, std::uint64_t seed,
                               Boundary boundary = Boundary::kTorus);

}  // namespace pdc::life
