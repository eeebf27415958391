#include "pdc/stencil/heat.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "pdc/stencil/vector_width.hpp"

namespace pdc::stencil {

namespace {

/// kBytes / 4 floats and their bit patterns, compiled to whatever the
/// enclosing function's target supports: SSE2, AVX or AVX-512F.
template <std::size_t kBytes>
struct Lanes {
  typedef float F __attribute__((vector_size(kBytes)));
  typedef std::int32_t Bits __attribute__((vector_size(kBytes)));
};

/// The three source rows a destination row reads, and that row.
struct RowPtrs {
  const float* up;
  const float* mid;
  const float* down;
  float* out;
};

// Vectors move only through references and memcpy below: passing a 32- or
// 64-byte vector by value changes the calling convention outside its
// target, and GCC warns about it (-Wpsabi) even in an inlined helper.

/// A tile's running max |next - cur|: one accumulator per vector width
/// its rows step through, from kBytes down to 16, then one for single
/// cells. No lane ever holds a NaN, so folding them together is exact and
/// order-free.
template <std::size_t kBytes>
struct MaxDelta {
  typename Lanes<kBytes>::F lanes{};
  std::conditional_t<(kBytes > 16), MaxDelta<kBytes / 2>, float> narrower{};
};

/// Steps the kBytes / 4 cells at column c of `row`. Each lane computes one
/// cell with the scalar formula's exact operation order, and `max` folds
/// in |next - cur| with std::max's semantics (a NaN delta is dropped).
template <std::size_t kBytes>
[[gnu::always_inline]] inline void step_lanes(const RowPtrs& row,
                                              std::size_t c, float k,
                                              typename Lanes<kBytes>::F& max) {
  using F = typename Lanes<kBytes>::F;
  using Bits = typename Lanes<kBytes>::Bits;
  F cur, up, down, left, right;
  std::memcpy(&cur, row.mid + c, kBytes);
  std::memcpy(&up, row.up + c, kBytes);
  std::memcpy(&down, row.down + c, kBytes);
  std::memcpy(&left, row.mid + c - 1, kBytes);
  std::memcpy(&right, row.mid + c + 1, kBytes);
  const F avg = 0.25f * (((up + down) + left) + right);
  const F next = cur + k * (avg - cur);
  std::memcpy(row.out + c, &next, kBytes);
  // std::fabs per lane: clear the sign bit.
  const F d = __builtin_bit_cast(
      F, __builtin_bit_cast(Bits, next - cur) & 0x7fffffff);
  max = (max < d) ? d : max;
}

/// Cells [c, c1) of one row: whole kBytes vectors, then the rest through
/// each narrower width (each runs at most once) and the last < 4 cells one
/// at a time.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void step_cells(const RowPtrs& row,
                                              std::size_t c, std::size_t c1,
                                              float k, MaxDelta<kBytes>& max) {
  for (; c + kBytes / 4 <= c1; c += kBytes / 4)
    step_lanes<kBytes>(row, c, k, max.lanes);
  if constexpr (kBytes > 16) {
    step_cells<kBytes / 2>(row, c, c1, k, max.narrower);
  } else {
    for (; c < c1; ++c) {
      const float cur = row.mid[c];
      const float avg =
          0.25f * (row.up[c] + row.down[c] + row.mid[c - 1] + row.mid[c + 1]);
      const float next = cur + k * (avg - cur);
      row.out[c] = next;
      max.narrower = std::max(max.narrower, std::fabs(next - cur));
    }
  }
}

/// The largest value in `max`: each width's lanes are halved into the next
/// narrower accumulator, then the last four lanes and the single cells.
template <std::size_t kBytes>
[[gnu::always_inline]] inline float fold(MaxDelta<kBytes>& max) {
  if constexpr (kBytes > 16) {
    typename Lanes<kBytes / 2>::F lo, hi;
    std::memcpy(&lo, &max.lanes, kBytes / 2);
    std::memcpy(&hi, reinterpret_cast<const char*>(&max.lanes) + kBytes / 2,
                kBytes / 2);
    auto& into = max.narrower.lanes;
    into = (into < lo) ? lo : into;
    into = (into < hi) ? hi : into;
    return fold(max.narrower);
  } else {
    const auto& v = max.lanes;
    return std::max({max.narrower, v[0], v[1], v[2], v[3]});
  }
}

/// HeatWorkload::step_tile at each vector width.
struct HeatTile {
  static constexpr std::string_view kGauge = "stencil.heat_kernel_lanes";
  static constexpr std::size_t kUnitBytes = sizeof(float);

  /// The tile at kBytes per vector. A tile narrower than one vector runs
  /// whole at a narrower width, so its rows skip the step-down.
  template <std::size_t kBytes>
  [[gnu::always_inline]] static double run(const HeatField& src,
                                           HeatField& dst, const TileBounds& b,
                                           float k) {
    if constexpr (kBytes > 16) {
      if (b.cols() < kBytes / 4) return run<kBytes / 2>(src, dst, b, k);
    }
    MaxDelta<kBytes> max;
    for (std::size_t r = b.r0; r < b.r1; ++r) {
      const auto ri = static_cast<std::ptrdiff_t>(r);
      const RowPtrs row{&src.at(ri - 1, 0), &src.at(ri, 0),
                        &src.at(ri + 1, 0), &dst.at(ri, 0)};
      step_cells<kBytes>(row, b.c0, b.c1, k, max);
    }
    return static_cast<double>(fold(max));
  }
};

using HeatDispatch =
    VectorDispatch<HeatTile, double(const HeatField&, HeatField&,
                                    const TileBounds&, float)>;

/// The engine options for `o`; every heat entry point goes through here.
/// Throws std::invalid_argument unless 0 < conductivity <= 1, the range on
/// which the update is stable. Outside it the field goes non-finite (or,
/// at 0, never moves), and since a NaN delta loses every max the run
/// would still report "converged".
Options engine_opts(const HeatOptions& o) {
  if (!(o.conductivity > 0.0 && o.conductivity <= 1.0))
    throw std::invalid_argument("heat conductivity must be in (0, 1]");
  Options e;
  e.tile_rows = o.tile_rows;
  e.tile_cols = o.tile_cols;
  e.max_steps = o.max_steps;
  e.skip_quiescent = o.skip_quiescent;
  e.quiesce_eps = o.quiesce_eps;
  e.converge_eps = o.converge_eps;
  e.span_name = "heat.step";
  return e;
}

/// heat_relax_plan's world: plan.ranks row strips in process, each
/// relaxed by plan.threads_per_rank threads.
RunResult relax_world(HeatField& field, const HeatOptions& opt,
                      const ExecPlan& plan) {
  const std::size_t cols = field.cols();
  return run_world(
      HeatWorkload{opt.conductivity}, field.rows(), /*wrap=*/false, plan,
      engine_opts(opt),
      [&](std::size_t r0, std::size_t r1) {
        // Copy the padded strip rows wholesale: the left/right halo
        // columns are the Dirichlet boundary, the top/bottom halo rows
        // start as the neighbor's edge rows (or the global boundary at
        // the domain edge) and are refreshed by the halo exchange.
        HeatField strip(r1 - r0, cols);
        for (std::size_t pr = 0; pr < (r1 - r0) + 2; ++pr)
          std::copy_n(&field.at(static_cast<std::ptrdiff_t>(r0 + pr) - 1, -1),
                      cols + 2,
                      &strip.at(static_cast<std::ptrdiff_t>(pr) - 1, -1));
        return strip;
      },
      [&](const HeatField& strip, std::size_t r0) {
        for (std::size_t pr = 0; pr < strip.rows(); ++pr)
          std::copy_n(&strip.at(static_cast<std::ptrdiff_t>(pr), 0), cols,
                      &field.at(static_cast<std::ptrdiff_t>(r0 + pr), 0));
      });
}

}  // namespace

HeatField::HeatField(std::size_t rows, std::size_t cols, float initial)
    : rows_(rows), cols_(cols) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("heat field dimensions must be > 0");
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (rows > kMax - 2 || cols > kMax - 2 || rows + 2 > kMax / (cols + 2))
    throw std::invalid_argument("heat field dimensions overflow size_t");
  if (!std::isfinite(initial))
    throw std::invalid_argument("heat field initial value must be finite");
  data_.assign((rows_ + 2) * (cols_ + 2), initial);
}

void HeatField::set_boundary(float top, float bottom, float left,
                             float right) {
  // A NaN delta loses every max and marks its tile quiescent, so a
  // non-finite input would relax to a false "converged".
  for (const float t : {top, bottom, left, right})
    if (!std::isfinite(t))
      throw std::invalid_argument("heat boundary temperatures must be finite");
  const std::ptrdiff_t nr = static_cast<std::ptrdiff_t>(rows_);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(cols_);
  for (std::ptrdiff_t c = -1; c <= nc; ++c) {
    at(-1, c) = top;
    at(nr, c) = bottom;
  }
  for (std::ptrdiff_t r = 0; r < nr; ++r) {
    at(r, -1) = left;
    at(r, nc) = right;
  }
}

double HeatField::max_abs_diff(const HeatField& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("heat field shape mismatch");
  double m = 0.0;
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(rows_); ++r)
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(cols_); ++c)
      m = std::max(m, std::fabs(static_cast<double>(at(r, c)) -
                                static_cast<double>(other.at(r, c))));
  return m;
}

double HeatWorkload::step_tile(const Field& src, Field& dst,
                               const TileBounds& b) const {
  return HeatDispatch::widest(src, dst, b, static_cast<float>(conductivity));
}

double detail::heat_step_tile(std::size_t vector_bytes, const HeatWorkload& w,
                              const HeatField& src, HeatField& dst,
                              const TileBounds& b) {
  return HeatDispatch::at(vector_bytes)(src, dst, b,
                                        static_cast<float>(w.conductivity));
}

void HeatWorkload::pack_row(const Field& f, bool top,
                            std::int64_t* out) const {
  const std::ptrdiff_t r =
      top ? 0 : static_cast<std::ptrdiff_t>(f.rows()) - 1;
  out[halo_words(f) - 1] = 0;  // zero the odd-cols tail half-word
  std::memcpy(out, &f.at(r, 0), f.cols() * sizeof(float));
}

void HeatWorkload::unpack_halo(Field& f, bool above,
                               const std::int64_t* in) const {
  const std::ptrdiff_t r =
      above ? -1 : static_cast<std::ptrdiff_t>(f.rows());
  std::memcpy(&f.at(r, 0), in, f.cols() * sizeof(float));
}

RunResult heat_relax_strip(HeatField& strip, const HeatOptions& opt,
                           const ExecPlan& plan, mp::RankContext& ctx,
                           const MpLinks& links) {
  HeatWorkload w{opt.conductivity};
  HeatField scratch = strip;
  return run(w, strip, scratch, plan, engine_opts(opt), ctx, links);
}

RunResult heat_relax_plan(HeatField& field, const HeatOptions& opt,
                          const ExecPlan& plan) {
  if (plan.ranks == 1) {
    HeatWorkload w{opt.conductivity};
    HeatField scratch = field;  // clones the boundary ring too
    return run(w, field, scratch, plan, engine_opts(opt));
  }
  return relax_world(field, opt, plan);
}

RunResult heat_relax_mp(HeatField& field, const HeatOptions& opt,
                        int ranks) {
  // Always through the communicator, even for one rank (a 1-rank strip
  // world is legal and distinct from the local engine: it allreduces).
  return relax_world(field, opt, ExecPlan{.ranks = ranks});
}

}  // namespace pdc::stencil
