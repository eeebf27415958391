#pragma once
// 2-D tile decomposition + per-tile activity tracking — the bookkeeping
// half of the stencil engine (engine.hpp is the execution half).
//
// TileMap cuts an abstract height x width domain into a grid of
// near-equal rectangular tiles. "Units" are whatever the workload
// addresses: cells for the float heat field, 64-cell packed words for
// Life — the map never touches memory, it only hands out bounds.
//
// ActivityMap is the dirty-tracking core. Each step the engine marks
// which tiles *changed* (their output differs from their input by more
// than the workload's quiescence threshold); advance() then dilates the
// changed set by one tile in all 8 directions to produce the next step's
// *active* set. The soundness argument, for any 1-deep stencil F:
//
//   if no input of tile T changed between steps g-1 and g, then
//   F applied at step g reproduces T's step-g value exactly — and the
//   double-buffered destination already holds that value (it was written
//   at step g-1), so T can be skipped without touching its memory.
//
// Dilation starts from "everything changed", so step 0 is always a full
// sweep and the invariant holds inductively. Strip execution (the
// message-passing engine) replaces the row-wrap with externally supplied
// per-tile-column flags from the neighboring ranks (activate_edges()),
// which keeps the distributed skip decisions identical to the
// shared-memory ones.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pdc::stencil {

/// Half-open bounds of one tile: rows [r0, r1) x columns [c0, c1), in
/// workload units.
struct TileBounds {
  std::size_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  [[nodiscard]] std::size_t rows() const { return r1 - r0; }
  [[nodiscard]] std::size_t cols() const { return c1 - c0; }
};

/// Rectangular tiling of a height x width domain. Tiles are indexed
/// row-major: t = ty * tiles_x() + tx.
class TileMap {
 public:
  TileMap(std::size_t height, std::size_t width, std::size_t tile_h,
          std::size_t tile_w);

  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t tile_h() const { return tile_h_; }
  [[nodiscard]] std::size_t tile_w() const { return tile_w_; }
  [[nodiscard]] std::size_t tiles_y() const { return tiles_y_; }
  [[nodiscard]] std::size_t tiles_x() const { return tiles_x_; }
  [[nodiscard]] std::size_t count() const { return tiles_y_ * tiles_x_; }

  [[nodiscard]] std::size_t index(std::size_t ty, std::size_t tx) const {
    return ty * tiles_x_ + tx;
  }
  [[nodiscard]] std::size_t tile_row(std::size_t t) const {
    return t / tiles_x_;
  }
  [[nodiscard]] std::size_t tile_col(std::size_t t) const {
    return t % tiles_x_;
  }
  [[nodiscard]] TileBounds bounds(std::size_t t) const;

 private:
  std::size_t height_, width_, tile_h_, tile_w_;
  std::size_t tiles_y_, tiles_x_;
};

/// Per-tile changed/active flags with 8-neighbor dilation. Starts in the
/// "everything changed" state so the first advance() activates every
/// tile. mark_changed() writes one byte per tile and is safe to call
/// concurrently for *distinct* tiles between barriers (each tile is
/// computed by exactly one worker).
class ActivityMap {
 public:
  /// wrap_rows / wrap_cols: dilate across the respective edges (torus).
  /// Strip execution passes wrap_rows = false and supplies neighbor
  /// flags to activate_edges() instead.
  ActivityMap(const TileMap& tm, bool wrap_rows, bool wrap_cols);

  void mark_changed(std::size_t t, bool changed) {
    changed_[t] = changed ? 1 : 0;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& changed() const {
    return changed_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& active() const {
    return active_;
  }
  [[nodiscard]] std::size_t active_count() const;

  /// active = 8-neighbor dilation of changed (across the row wrap when
  /// wrap_rows is set); changed is then cleared for the next step's
  /// marks.
  void advance();

  /// OR the dilation contributed by external neighbor flags into an
  /// already-advanced active set: `above` / `below` are tiles_x()
  /// changed flags for the tile row beyond the top / bottom edge, null =
  /// no neighbor — the strip-execution replacement for the row wrap.
  /// Only the first and last tile rows can change, so the strip engine
  /// fixes the *interior* active set before the halo arrives and folds
  /// the edge tile rows in afterwards.
  void activate_edges(const std::uint8_t* above, const std::uint8_t* below);

  /// Copy the changed flags of the top / bottom tile row (tiles_x()
  /// bytes) — what a rank sends to its neighbors before advance() wipes
  /// them.
  void copy_edge_changed(bool top, std::uint8_t* out) const;

 private:
  /// Any of row[tx-1..tx+1] set (with the column wrap)? Null row = no.
  [[nodiscard]] bool row_any(const std::uint8_t* row, std::size_t tx) const;

  std::size_t tiles_y_, tiles_x_;
  bool wrap_rows_, wrap_cols_;
  std::vector<std::uint8_t> changed_;
  std::vector<std::uint8_t> active_;
};

}  // namespace pdc::stencil
