#include "pdc/stencil/engine.hpp"

#include <stdexcept>

#include "pdc/obs/metrics.hpp"

namespace pdc::stencil::detail {

void validate(const Options& opt) {
  if (opt.tile_rows == 0 || opt.tile_cols == 0)
    throw std::invalid_argument("stencil tile dimensions must be > 0");
  if (opt.max_steps < 0)
    throw std::invalid_argument("stencil max_steps must be >= 0");
  // Negated so NaN fails too: every `delta > NaN` is false, which would
  // mark every tile quiescent and fake convergence.
  if (!(opt.quiesce_eps >= 0.0))
    throw std::invalid_argument("stencil quiesce_eps must be >= 0");
  // A tile marked quiescent at eps > converge_eps could hide exactly the
  // residual the convergence check is looking for; forbid the combination
  // instead of silently converging early.
  if (opt.converge_eps >= 0.0 && opt.quiesce_eps > opt.converge_eps)
    throw std::invalid_argument(
        "stencil quiesce_eps must be <= converge_eps when convergence "
        "detection is enabled");
  if (opt.span_name == nullptr)
    throw std::invalid_argument("stencil span_name must be non-null");
}

void validate(const ExecPlan& plan) {
  if (plan.ranks < 1)
    throw std::invalid_argument("stencil plan ranks must be >= 1");
  if (plan.threads_per_rank < 1)
    throw std::invalid_argument("stencil plan threads_per_rank must be >= 1");
}

void bump_counters(const RunResult& res) {
  obs::counter("stencil.steps").add(res.steps);
  obs::counter("stencil.tiles_computed").add(res.tiles_computed);
  obs::counter("stencil.tiles_skipped").add(res.tiles_skipped);
  obs::counter("stencil.halo_words").add(res.halo_words);
}

}  // namespace pdc::stencil::detail
