#pragma once
// Game of Life engines — three implementations of the same generation
// rule, exactly the progression the curriculum teaches:
//   1. sequential         (CS31 "Game of Life" lab)
//   2. row-partitioned threads with a per-generation barrier
//                         (CS31 "Parallel Game of Life" scalability lab)
//   3. message-passing halo exchange over pdc::mp
//                         (CS87 distributed-memory version)
// All engines run on the bit-packed SWAR representation (packed_grid.hpp)
// internally — the byte Grid stays the public API, and run_reference keeps
// the naive per-cell kernel as the oracle. All engines produce
// bit-identical boards; tests assert it.
//
// Execution is delegated to the generic 2-D stencil engine
// (pdc/stencil/engine.hpp) via LifeWorkload: true 2-D tiling plus
// per-tile dirty tracking, so settled regions of the board are skipped
// entirely — with an exact dirty predicate, so skipping stays
// bit-identical to the full sweep.

#include "pdc/life/grid.hpp"
#include "pdc/stencil/engine.hpp"

namespace pdc::life {

/// Tiling/skipping knobs shared by the three packed engines. Tiles are
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
/// first. This is the reference implementation the packed engines are
/// asserted bit-identical against (and the baseline the bench compares).
void run_reference(Grid& board, int generations);

/// Advance `board` by `generations` steps, single threaded, on the
/// bit-packed SWAR kernel (see pdc/life/packed_grid.hpp): 64 cells per
/// word, neighbor counts via bitwise carry-save adders, no per-cell work.
/// Plan {1,1}; the result carries the stencil engine's skip accounting
/// (tiles computed/skipped per run).
stencil::RunResult run_sequential(Grid& board, int generations,
                                  const EngineOptions& opt = {});

/// Advance `board` using `threads` workers (plan {1,threads}). Each
/// generation's *active* tiles are shared across the team; a barrier
/// separates generations (double buffering, no locks needed).
stencil::RunResult run_threaded(Grid& board, int generations, int threads,
                                const EngineOptions& opt = {});

/// Advance `board` on `ranks` message-passing processes (plan {ranks,1},
/// always in a world of its own, even for one rank): each rank owns a
/// block of tile rows and exchanges one message per neighbor per
/// generation — per-tile activity flags plus the packed halo row, one
/// payload word per 64 cells instead of one per cell. `messages_out` and
/// `payload_words_out`, if non-null, receive the world's total messages
/// and payload words.
stencil::RunResult run_message_passing(Grid& board, int generations,
                                       int ranks,
                                       const EngineOptions& opt = {},
                                       std::uint64_t* messages_out = nullptr,
                                       std::uint64_t* payload_words_out =
                                           nullptr);

/// Advance `board` on an arbitrary stencil::ExecPlan — the hybrid
/// entry point. One rank runs the local engine (no world, no traffic);
/// more run plan.ranks row strips as one in-process world
/// (stencil::run_world), with plan.threads_per_rank threads advancing
/// each strip's tiles and the halo exchange scheduled per plan.schedule.
/// shm/tcp worlds are launched through mp::launch::run_spmd instead.
/// {1,1} is run_sequential, {1,T} run_threaded, {R,1}
/// run_message_passing; every shape is bit-identical to the reference.
stencil::RunResult run_plan(Grid& board, int generations,
                            const stencil::ExecPlan& plan,
                            const EngineOptions& opt = {},
                            std::uint64_t* messages_out = nullptr,
                            std::uint64_t* payload_words_out = nullptr);

}  // namespace pdc::life
