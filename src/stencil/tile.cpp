#include "pdc/stencil/tile.hpp"

#include <algorithm>
#include <stdexcept>

namespace pdc::stencil {

TileMap::TileMap(std::size_t height, std::size_t width, std::size_t tile_h,
                 std::size_t tile_w)
    : height_(height),
      width_(width),
      tile_h_(std::min(tile_h, height)),
      tile_w_(std::min(tile_w, width)) {
  if (height == 0 || width == 0)
    throw std::invalid_argument("tile map domain must be > 0");
  if (tile_h == 0 || tile_w == 0)
    throw std::invalid_argument("tile dimensions must be > 0");
  tiles_y_ = (height_ + tile_h_ - 1) / tile_h_;
  tiles_x_ = (width_ + tile_w_ - 1) / tile_w_;
}

TileBounds TileMap::bounds(std::size_t t) const {
  if (t >= count()) throw std::out_of_range("tile index");
  const std::size_t ty = tile_row(t), tx = tile_col(t);
  return TileBounds{
      ty * tile_h_, std::min(height_, (ty + 1) * tile_h_),
      tx * tile_w_, std::min(width_, (tx + 1) * tile_w_)};
}

ActivityMap::ActivityMap(const TileMap& tm, bool wrap_rows, bool wrap_cols)
    : tiles_y_(tm.tiles_y()),
      tiles_x_(tm.tiles_x()),
      wrap_rows_(wrap_rows),
      wrap_cols_(wrap_cols),
      changed_(tm.count(), 1),  // "everything changed": step 0 sweeps all
      active_(tm.count(), 0) {}

std::size_t ActivityMap::active_count() const {
  std::size_t n = 0;
  for (const auto a : active_) n += a;
  return n;
}

bool ActivityMap::row_any(const std::uint8_t* row, std::size_t tx) const {
  if (row == nullptr) return false;
  if (row[tx] != 0) return true;
  if (tx > 0 ? row[tx - 1] != 0
             : (wrap_cols_ && tiles_x_ > 1 && row[tiles_x_ - 1] != 0))
    return true;
  if (tx + 1 < tiles_x_ ? row[tx + 1] != 0
                        : (wrap_cols_ && tiles_x_ > 1 && row[0] != 0))
    return true;
  return false;
}

void ActivityMap::advance() {
  // Row of changed flags one step beyond the top/bottom edge, as dilation
  // sees it: the wrap row (the map's own row when tiles_y() == 1), or
  // nothing.
  const auto edge_row = [&](bool top) -> const std::uint8_t* {
    if (!wrap_rows_) return nullptr;
    return changed_.data() + (top ? (tiles_y_ - 1) * tiles_x_ : 0);
  };

  for (std::size_t ty = 0; ty < tiles_y_; ++ty) {
    const std::uint8_t* mid = changed_.data() + ty * tiles_x_;
    const std::uint8_t* up =
        ty > 0 ? changed_.data() + (ty - 1) * tiles_x_ : edge_row(true);
    const std::uint8_t* down =
        ty + 1 < tiles_y_ ? changed_.data() + (ty + 1) * tiles_x_
                          : edge_row(false);
    for (std::size_t tx = 0; tx < tiles_x_; ++tx) {
      active_[ty * tiles_x_ + tx] =
          (row_any(mid, tx) || row_any(up, tx) || row_any(down, tx)) ? 1 : 0;
    }
  }
  std::fill(changed_.begin(), changed_.end(), 0);
}

void ActivityMap::activate_edges(const std::uint8_t* above,
                                 const std::uint8_t* below) {
  // `above` dilates only into tile row 0, `below` only into the last
  // tile row (the same row when tiles_y() == 1). Interior rows are
  // untouched, which is what makes the advance/activate_edges split
  // sound.
  for (std::size_t tx = 0; tx < tiles_x_; ++tx) {
    if (row_any(above, tx)) active_[tx] = 1;
    if (row_any(below, tx)) active_[(tiles_y_ - 1) * tiles_x_ + tx] = 1;
  }
}

void ActivityMap::copy_edge_changed(bool top, std::uint8_t* out) const {
  const std::uint8_t* row =
      changed_.data() + (top ? 0 : (tiles_y_ - 1) * tiles_x_);
  std::copy_n(row, tiles_x_, out);
}

}  // namespace pdc::stencil
