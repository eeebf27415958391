#include "pdc/life/engine.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "pdc/core/team.hpp"
#include "pdc/life/packed_grid.hpp"
#include "pdc/life/stencil_workload.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/stencil/engine.hpp"

namespace pdc::life {

namespace {

/// Compute rows [row_begin, row_end) of `dst` from `src`, one cell at a
/// time through the public Grid API — the reference kernel.
void step_rows_bytes(const Grid& src, Grid& dst, std::size_t row_begin,
                     std::size_t row_end) {
  for (std::size_t r = row_begin; r < row_end; ++r)
    for (std::size_t c = 0; c < src.cols(); ++c)
      dst.set(r, c, src.next_state(r, c));
}

stencil::Options engine_opts(const EngineOptions& opt, int generations) {
  stencil::Options e;
  e.tile_rows = opt.tile_rows;
  e.tile_cols = opt.tile_words;
  e.max_steps = generations;
  e.skip_quiescent = opt.skip_quiescent;
  e.quiesce_eps = 0.0;    // exact: skipping is bit-identical
  e.converge_eps = -1.0;  // Life runs a fixed number of generations
  e.span_name = "life.gen";
  return e;
}

void check_args(int generations) {
  if (generations < 0) throw std::invalid_argument("generations must be >= 0");
}

/// plan.ranks strip ranks in one in-process world (stencil::run_world),
/// each strip advanced by plan.threads_per_rank threads. Used for every
/// multi-rank shape — and by run_message_passing even for one rank, where
/// the torus self-links still exchange real messages.
stencil::RunResult run_ranks(Grid& board, int generations,
                             const stencil::ExecPlan& plan,
                             const EngineOptions& opt,
                             std::uint64_t* messages_out,
                             std::uint64_t* payload_words_out) {
  mp::TrafficStats traffic;
  const stencil::RunResult res = stencil::run_world(
      LifeWorkload{.external_halo = true}, board.rows(),
      board.boundary() == Boundary::kTorus, plan,
      engine_opts(opt, generations),
      [&](std::size_t r0, std::size_t r1) {
        // The row halos are filled from received messages (never by
        // sync_halo_rows); the column wrap stays a local concern.
        PackedGrid strip(r1 - r0, board.cols(), board.boundary());
        PDC_TRACE_SCOPE("life.convert");
        strip.load_rows(board, r0);
        return strip;
      },
      [&](const PackedGrid& strip, std::size_t r0) {
        PDC_TRACE_SCOPE("life.convert");
        strip.store_rows(board, r0);
      },
      &traffic);
  if (messages_out != nullptr) *messages_out = traffic.messages;
  if (payload_words_out != nullptr) *payload_words_out = traffic.payload_words;
  return res;
}

}  // namespace

void run_reference(Grid& board, int generations) {
  check_args(generations);
  Grid next(board.rows(), board.cols(), board.boundary());
  for (int g = 0; g < generations; ++g) {
    PDC_TRACE_SCOPE("life.gen");
    step_rows_bytes(board, next, 0, board.rows());
    std::swap(board, next);
  }
}

stencil::RunResult run_message_passing(Grid& board, int generations,
                                       int ranks, const EngineOptions& opt,
                                       std::uint64_t* messages_out,
                                       std::uint64_t* payload_words_out) {
  check_args(generations);
  return run_ranks(board, generations, stencil::ExecPlan{.ranks = ranks},
                   opt, messages_out, payload_words_out);
}

stencil::RunResult run_plan(Grid& board, int generations,
                            const stencil::ExecPlan& plan,
                            const EngineOptions& opt,
                            std::uint64_t* messages_out,
                            std::uint64_t* payload_words_out) {
  check_args(generations);
  if (plan.ranks != 1)
    return run_ranks(board, generations, plan, opt, messages_out,
                     payload_words_out);
  // One rank: the local engine, no communicator (and no traffic).
  if (messages_out != nullptr) *messages_out = 0;
  if (payload_words_out != nullptr) *payload_words_out = 0;
  // The conversions in and out run on the plan's team as well, each
  // thread on its block of rows, in a life.convert span of its own.
  const auto by_rows = [&](const auto& convert) {
    core::Team::run(plan.threads_per_rank, [&](core::TeamContext& tc) {
      PDC_TRACE_SCOPE("life.convert");
      const auto [lo, hi] = tc.block_range(0, board.rows());
      convert(lo, hi);
    });
  };
  PackedGrid cur(board.rows(), board.cols(), board.boundary());
  by_rows([&](std::size_t lo, std::size_t hi) {
    cur.load_rows(board, 0, lo, hi);
  });
  PackedGrid nxt(board.rows(), board.cols(), board.boundary());
  LifeWorkload w;
  const stencil::RunResult res =
      stencil::run(w, cur, nxt, plan, engine_opts(opt, generations));
  by_rows([&](std::size_t lo, std::size_t hi) {
    cur.store_rows(board, 0, lo, hi);
  });
  return res;
}

}  // namespace pdc::life
