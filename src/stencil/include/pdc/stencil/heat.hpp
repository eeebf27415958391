#pragma once
// Heat dissipation on the stencil engine — the second workload that
// proves pdc::stencil is an abstraction rather than Life with the serial
// numbers filed off. Jacobi relaxation of the heat equation on a float
// grid with fixed (Dirichlet) boundary temperatures:
//
//   next(r,c) = cur(r,c) + k * (avg4(cur, r, c) - cur(r,c))
//
// run until the global max per-cell delta drops to converge_eps. Unlike
// Life this is a float kernel with a *residual-based* dirty predicate: a
// tile is quiescent once its step delta is <= quiesce_eps. With
// quiesce_eps = 0 skipping is exact; either way the same options produce
// the same iteration count and final residual on every ExecPlan.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pdc/stencil/engine.hpp"

namespace pdc::stencil {

/// rows x cols float grid with a one-cell halo ring. The ring holds the
/// Dirichlet boundary for the full-domain engines and the neighbor halo
/// rows for strip (message-passing) execution.
class HeatField {
 public:
  /// Throws std::invalid_argument, before allocating, on a zero dimension,
  /// a padded cell count, (rows + 2) x (cols + 2), that does not fit in
  /// size_t, or a non-finite `initial`.
  HeatField(std::size_t rows, std::size_t cols, float initial = 0.0f);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Payload access, 0-based; the halo ring sits at index -1 and rows()/
  /// cols(), reachable through the same accessor.
  [[nodiscard]] float& at(std::ptrdiff_t r, std::ptrdiff_t c) {
    return data_[static_cast<std::size_t>(r + 1) * (cols_ + 2) +
                 static_cast<std::size_t>(c + 1)];
  }
  [[nodiscard]] const float& at(std::ptrdiff_t r, std::ptrdiff_t c) const {
    return data_[static_cast<std::size_t>(r + 1) * (cols_ + 2) +
                 static_cast<std::size_t>(c + 1)];
  }

  /// Fill the whole halo ring (corners included) with fixed boundary
  /// temperatures. Call on *both* double buffers: the ring is read every
  /// step but written only here (full-domain runs) or by halo unpacking
  /// (strip runs, top/bottom rows only). Throws std::invalid_argument,
  /// writing nothing, if a temperature is not finite.
  void set_boundary(float top, float bottom, float left, float right);

  [[nodiscard]] double max_abs_diff(const HeatField& other) const;
  friend bool operator==(const HeatField& a, const HeatField& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_, cols_;
  std::vector<float> data_;
};

struct HeatOptions {
  /// k in next = cur + k*(avg4 - cur), in (0, 1]: the update is a convex
  /// blend of cur and avg4 exactly on that range, so it cannot diverge.
  /// Every entry point throws std::invalid_argument outside it.
  double conductivity = 0.2;
  int max_steps = 10000;
  double converge_eps = 1e-3;
  double quiesce_eps = 0.0;  ///< 0 = exact skipping
  std::size_t tile_rows = 32;
  std::size_t tile_cols = 64;
  bool skip_quiescent = true;
};

/// Stencil workload adapter: plugs HeatField into stencil::run on every
/// ExecPlan shape. Units are cells; boundaries are Dirichlet (no wrap).
struct HeatWorkload {
  double conductivity = 0.2;

  using Field = HeatField;
  [[nodiscard]] std::size_t height(const Field& f) const { return f.rows(); }
  [[nodiscard]] std::size_t width(const Field& f) const { return f.cols(); }
  [[nodiscard]] bool wrap_rows(const Field&) const { return false; }
  [[nodiscard]] bool wrap_cols(const Field&) const { return false; }
  void init(Field&) const {}
  /// One Jacobi sweep of b's cells from src into dst; returns the max
  /// |next - cur|. Computes a vector of columns at a time, at the widest
  /// width this CPU runs (stencil::vector_widths()), bit-identical to the
  /// per-cell formula above at every width. The first call picks the
  /// width and sets the obs gauge `stencil.heat_kernel_lanes`.
  double step_tile(const Field& src, Field& dst, const TileBounds& b) const;
  void finish_step(Field&, const TileMap&,
                   const std::vector<std::uint8_t>&) const {}

  // Strip-execution hooks: halo rows travel packed two floats per wire
  // word.
  [[nodiscard]] std::size_t halo_words(const Field& f) const {
    return (f.cols() + 1) / 2;
  }
  void pack_row(const Field& f, bool top, std::int64_t* out) const;
  void unpack_halo(Field& f, bool above, const std::int64_t* in) const;
  void finish_halo(Field&) const {}
};

namespace detail {
/// HeatWorkload::step_tile at `vector_bytes` per vector, one of
/// vector_widths(), for tests and benches that cover every width. Throws
/// std::invalid_argument if this CPU does not run that width.
double heat_step_tile(std::size_t vector_bytes, const HeatWorkload& w,
                      const HeatField& src, HeatField& dst,
                      const TileBounds& b);
}  // namespace detail

/// Relax `field` in place until convergence (or max_steps) on an
/// ExecPlan — the entry point for every plan. One rank relaxes `field`
/// locally on plan.threads_per_rank threads ({} is sequential,
/// {.threads_per_rank = T} threaded); more run plan.ranks row strips as
/// one in-process world (stencil::run_world) with plan.threads_per_rank
/// threads relaxing every strip (shm/tcp worlds: mp::launch::run_spmd
/// with heat_relax_strip inside each body). Rows are partitioned on tile
/// boundaries so every plan's skip decisions — and therefore fields,
/// steps, residuals, tile counts — are bit-identical.
RunResult heat_relax_plan(HeatField& field, const HeatOptions& opt,
                          const ExecPlan& plan);

/// Same computation on the message-passing engine: plan {ranks, 1},
/// always in a world of its own — even for one rank, which
/// heat_relax_plan runs locally without the world's allreduce.
RunResult heat_relax_mp(HeatField& field, const HeatOptions& opt, int ranks);

/// One rank's share of heat_relax_plan, callable from inside an existing
/// SPMD body (this is what the fault-injection stress harness drives
/// directly). `strip` is this rank's rows with boundary + halo ring
/// already set; for cross-engine-identical skip decisions the strip's
/// row count must be a whole number of tiles except on the last rank.
/// plan.threads_per_rank threads relax the strip; plan.ranks is the
/// launcher's concern.
RunResult heat_relax_strip(HeatField& strip, const HeatOptions& opt,
                           const ExecPlan& plan, mp::RankContext& ctx,
                           const MpLinks& links);

}  // namespace pdc::stencil
