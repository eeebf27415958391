#include "pdc/stencil/heat.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace pdc::stencil {

namespace {

// Four floats in a portable GCC/Clang vector: lane-wise arithmetic and
// comparisons, compiled to baseline SSE on x86-64.
typedef float Vec4 __attribute__((vector_size(16)));
typedef std::int32_t Bits4 __attribute__((vector_size(16)));

Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

/// Lane-wise std::fabs: clears the sign bit.
Vec4 abs4(Vec4 v) {
  return std::bit_cast<Vec4>(std::bit_cast<Bits4>(v) & 0x7fffffff);
}

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

// Each lane of a Vec4 computes one cell with the scalar formula's exact
// operation order, so the vector kernel's fields are bit-identical to a
// per-cell loop; the max-reduction is order-free. Four lanes is the
// x86-64 baseline SSE width: no ISA flags, and on a cold front full of
// subnormal floats the microcode assist is paid once per four cells.
double HeatWorkload::step_tile(const Field& src, Field& dst,
                               const TileBounds& b) const {
  const float k = static_cast<float>(conductivity);
  const std::size_t vec_end = b.c0 + (b.c1 - b.c0) / 4 * 4;
  Vec4 max4 = {};
  float max_d = 0.0f;
  for (std::size_t r = b.r0; r < b.r1; ++r) {
    const auto ri = static_cast<std::ptrdiff_t>(r);
    const float* up = &src.at(ri - 1, 0);
    const float* mid = &src.at(ri, 0);
    const float* down = &src.at(ri + 1, 0);
    float* out = &dst.at(ri, 0);
    std::size_t c = b.c0;
    for (; c < vec_end; c += 4) {
      const Vec4 cur = load4(mid + c);
      const Vec4 avg = 0.25f * (((load4(up + c) + load4(down + c)) +
                                 load4(mid + c - 1)) +
                                load4(mid + c + 1));
      const Vec4 next = cur + k * (avg - cur);
      store4(out + c, next);
      const Vec4 d = abs4(next - cur);
      max4 = (max4 < d) ? d : max4;  // std::max's semantics: NaN dropped
    }
    for (; c < b.c1; ++c) {
      const float cur = mid[c];
      const float avg = 0.25f * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
      const float next = cur + k * (avg - cur);
      out[c] = next;
      max_d = std::max(max_d, std::fabs(next - cur));
    }
  }
  for (int i = 0; i < 4; ++i) max_d = std::max(max_d, max4[i]);
  return static_cast<double>(max_d);
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
