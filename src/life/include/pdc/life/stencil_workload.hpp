#pragma once
// PackedGrid as a pdc::stencil workload: the SWAR carry-save kernel
// becomes one step_tile and all three Life engines become thin drivers
// over the generic engine (engine.cpp). Units are logical rows x payload
// words — a "cell" of the stencil domain is one 64-cell word, so a tile
// of tile_words columns covers 64 * tile_words board columns.
//
// The dirty predicate is exact: step_tile_into compares the masked
// output words against the source, so a tile reports changed iff any of
// its 64-cell lanes actually flipped. With skipping enabled the engine
// therefore reproduces the full sweep bit for bit (see tile.hpp).

#include <cstdint>
#include <vector>

#include "pdc/life/packed_grid.hpp"
#include "pdc/stencil/engine.hpp"

namespace pdc::life {

struct LifeWorkload {
  /// Strip execution (message passing): the halo rows arrive over the
  /// wire instead of the local row wrap, so init/finish_step leave them
  /// alone and finish_halo re-applies their ghost bits after unpacking.
  bool external_halo = false;

  using Field = PackedGrid;

  [[nodiscard]] std::size_t height(const Field& f) const { return f.rows(); }
  [[nodiscard]] std::size_t width(const Field& f) const {
    return f.words_per_row();
  }
  [[nodiscard]] bool wrap_rows(const Field& f) const {
    return !external_halo && f.boundary() == Boundary::kTorus;
  }
  [[nodiscard]] bool wrap_cols(const Field& f) const {
    return f.boundary() == Boundary::kTorus;
  }

  void init(Field& f) const {
    f.sync_row_ghosts(0, f.rows());
    if (!external_halo) f.sync_halo_rows();
  }

  /// A tile that spans its rows owns both ends of each, so it re-syncs
  /// their ghost bits itself, on the thread that computed it.
  double step_tile(const Field& src, Field& dst,
                   const stencil::TileBounds& b) const {
    const bool changed = src.step_tile_into(dst, b.r0, b.r1, b.c0, b.c1);
    if (b.c0 == 0 && b.c1 == dst.words_per_row())
      dst.sync_row_ghosts(b.r0, b.r1);
    return changed ? 1.0 : 0.0;
  }

  /// Re-sync the ghost bits of every row split across several tiles that
  /// got fresh words this step: its two ends may be computed by different
  /// threads at once, so only here, after the step, are both final.
  /// Skipped tiles' words provably hold current values (tile.hpp), so a
  /// partially recomputed row still yields correct ghosts; fully skipped
  /// rows keep the consistent ghosts of their last sync in this buffer.
  /// Then copy the wrap halo rows, ghosts included, from the edge rows.
  void finish_step(Field& dst, const stencil::TileMap& tm,
                   const std::vector<std::uint8_t>& computed) const {
    if (tm.tiles_x() > 1) {
      for (std::size_t ty = 0; ty < tm.tiles_y(); ++ty) {
        bool any = false;
        for (std::size_t tx = 0; tx < tm.tiles_x(); ++tx)
          any = any || computed[tm.index(ty, tx)] != 0;
        if (any) {
          const stencil::TileBounds b = tm.bounds(tm.index(ty, 0));
          dst.sync_row_ghosts(b.r0, b.r1);
        }
      }
    }
    if (!external_halo) dst.sync_halo_rows();
  }

  // --- strip-execution hooks ---
  [[nodiscard]] std::size_t halo_words(const Field& f) const {
    return f.words_per_row();
  }
  void pack_row(const Field& f, bool top, std::int64_t* out) const {
    const std::uint64_t* row = f.row_words(top ? 0 : f.rows() - 1);
    const std::size_t n = f.words_per_row();
    for (std::size_t i = 0; i < n; ++i)
      out[i] = static_cast<std::int64_t>(row[i]);
    out[n - 1] = static_cast<std::int64_t>(row[n - 1] & f.tail_mask());
  }
  void unpack_halo(Field& f, bool above, const std::int64_t* in) const {
    std::uint64_t* row = above ? f.halo_above_words() : f.halo_below_words();
    for (std::size_t i = 0; i < f.words_per_row(); ++i)
      row[i] = static_cast<std::uint64_t>(in[i]);
  }
  void finish_halo(Field& f) const { f.sync_halo_row_ghosts(); }
};

}  // namespace pdc::life
