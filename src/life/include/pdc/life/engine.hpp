#pragma once
// Game of Life engine — one generation rule, run as the three execution
// plans the curriculum teaches, all through run_plan:
//   1. {1,1} sequential                (CS31 "Game of Life" lab)
//   2. {1,T} T threads per generation, a barrier between generations
//                                      (CS31 "Parallel Game of Life" lab)
//   3. {R,1} R row strips exchanging halos over pdc::mp
//                                      (CS87 distributed-memory version)
// and their hybrid {R,T}. Every plan runs on the bit-packed SWAR
// representation (packed_grid.hpp) internally — the byte Grid stays the
// public API, and run_reference keeps the naive per-cell kernel as the
// oracle. Every plan produces a bit-identical board; tests assert it.
//
// Execution is delegated to the generic 2-D stencil engine
// (pdc/stencil/engine.hpp) via LifeWorkload: true 2-D tiling plus
// per-tile dirty tracking, so settled regions of the board are skipped
// entirely — with an exact dirty predicate, so skipping stays
// bit-identical to the full sweep.

#include "pdc/life/grid.hpp"
#include "pdc/stencil/engine.hpp"

namespace pdc::life {

/// Tiling/skipping knobs shared by every packed plan. Tiles are
/// tile_rows board rows by tile_words *64-cell words* (so 64*tile_words
/// board columns). Defaults keep one tile's working set comfortably in
/// cache while leaving enough tiles for skipping to matter.
struct EngineOptions {
  std::size_t tile_rows = 32;
  std::size_t tile_words = 128;
  bool skip_quiescent = true;
};

/// Advance `board` by `generations` steps with the naive byte kernel —
/// one `Grid::next_state` call per cell, exactly as the CS31 lab writes it
/// first. This is the reference implementation every packed plan is
/// asserted bit-identical against (and the baseline the bench compares).
void run_reference(Grid& board, int generations);

/// Advance `board` on `ranks` message-passing processes (plan {ranks,1},
/// always in a world of its own — even for one rank, which run_plan runs
/// locally without a message): each rank owns a block of tile rows and
/// exchanges one message per neighbor per generation — per-tile activity
/// flags plus the packed halo row, one payload word per 64 cells instead
/// of one per cell. `messages_out` and `payload_words_out`, if non-null,
/// receive the world's total messages and payload words.
stencil::RunResult run_message_passing(Grid& board, int generations,
                                       int ranks,
                                       const EngineOptions& opt = {},
                                       std::uint64_t* messages_out = nullptr,
                                       std::uint64_t* payload_words_out =
                                           nullptr);

/// Advance `board` by `generations` steps on a stencil::ExecPlan — the
/// entry point for every plan. One rank runs the local engine (no world,
/// no traffic) on plan.threads_per_rank threads: {} is the sequential
/// run, {.threads_per_rank = T} the threaded one, each generation's
/// *active* tiles shared across the team with a barrier between
/// generations, and the conversion into and out of the packed board
/// split into T blocks of rows, one per thread. More ranks run
/// plan.ranks row strips as one in-process world (stencil::run_world),
/// with plan.threads_per_rank threads advancing each strip's tiles, its
/// interior while the halo is received. shm/tcp worlds are
/// launched through mp::launch::run_spmd instead. Every shape is
/// bit-identical to the reference; the result carries the stencil
/// engine's skip accounting (tiles computed/skipped per run). Each
/// Grid<->PackedGrid conversion (a team member's block of rows on one
/// rank, a strip's load or store on several) is a `life.convert` trace
/// span on the thread that runs it.
stencil::RunResult run_plan(Grid& board, int generations,
                            const stencil::ExecPlan& plan,
                            const EngineOptions& opt = {},
                            std::uint64_t* messages_out = nullptr,
                            std::uint64_t* payload_words_out = nullptr);

}  // namespace pdc::life
